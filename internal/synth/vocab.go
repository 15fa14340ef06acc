package synth

// Text generation for complaint and search-query logs (Section 4.1.3 of the
// paper). Each text source has a small set of latent topics; a customer's
// monthly text is a bag of words drawn from a mixture over topics. Churn
// intent shifts search text toward the competitor topic (the paper: "search
// other operators' hotline, search new handset"), and dissatisfaction shifts
// complaints toward the network-quality topic — but complaint volume stays
// low and noisy, reproducing the paper's finding that F7 adds only ~2%.

// topic is a named word list; words are drawn uniformly within a topic,
// which is enough structure for LDA to recover topic proportions.
type topic struct {
	name  string
	words []string
}

var complaintTopics = []topic{
	{name: "network", words: []string{
		"signal", "weak", "drop", "dropped", "call_fail", "no_service", "dead_zone",
		"slow", "internet", "buffering", "timeout", "coverage", "disconnect",
		"latency", "4g", "3g", "unstable", "outage", "reconnect", "interference",
	}},
	{name: "billing", words: []string{
		"charge", "overcharge", "bill", "fee", "deduction", "balance", "refund",
		"wrong_amount", "hidden_fee", "package", "tariff", "invoice", "dispute",
		"double_billed", "credit", "payment", "price", "expensive", "rate", "plan",
	}},
	{name: "service", words: []string{
		"hotline", "agent", "rude", "wait", "queue", "unresolved", "callback",
		"store", "sim", "replacement", "activation", "transfer", "slow_response",
		"complaint", "escalate", "manager", "apology", "ticket", "follow_up", "closed",
	}},
	{name: "handset", words: []string{
		"phone", "handset", "battery", "screen", "upgrade", "warranty", "repair",
		"broken", "settings", "apn", "configuration", "volte", "compatibility",
		"firmware", "hotspot", "bluetooth", "contacts", "storage", "camera", "reset",
	}},
}

var searchTopics = []topic{
	{name: "competitor", words: []string{
		"china_mobile", "china_telecom", "cmcc", "ct_plan", "port_number",
		"switch_operator", "mnp", "competitor_offer", "new_sim", "operator_compare",
		"telecom_hotline", "mobile_hotline", "cheap_plan", "transfer_number",
		"cancel_service", "contract_free", "better_signal", "operator_review",
		"unsubscribe", "number_portability",
	}},
	{name: "handset", words: []string{
		"new_phone", "smartphone", "iphone", "android", "phone_review",
		"phone_price", "dual_sim", "phone_deal", "flagship", "budget_phone",
		"screen_size", "battery_life", "camera_test", "phone_shop", "trade_in",
		"unlock_phone", "phone_compare", "5g_phone", "accessories", "phone_case",
	}},
	{name: "news", words: []string{
		"news", "weather", "sports", "football", "stocks", "finance", "politics",
		"headline", "breaking", "local_news", "world", "economy", "celebrity",
		"traffic", "air_quality", "holiday", "festival", "lottery", "horoscope", "tv",
	}},
	{name: "shopping", words: []string{
		"taobao", "discount", "coupon", "delivery", "online_shop", "groceries",
		"clothes", "shoes", "electronics", "flash_sale", "cashback", "review",
		"price_check", "order_status", "refund_policy", "gift", "brand", "mall",
		"payment_app", "wallet",
	}},
	{name: "video", words: []string{
		"video", "streaming", "movie", "series", "episode", "download", "music",
		"mv", "live_stream", "short_video", "trailer", "anime", "drama", "comedy",
		"variety_show", "documentary", "playlist", "karaoke", "concert", "game_stream",
	}},
	{name: "life", words: []string{
		"recipe", "restaurant", "map", "bus_route", "train_ticket", "flight",
		"hotel", "job", "resume", "apartment", "rent", "hospital", "clinic",
		"school", "exam", "translation", "dictionary", "bank", "insurance", "tax",
	}},
}

// sampleText draws n words from a mixture over topics, where mix[i] is the
// unnormalized weight of topics[i], and joins them with spaces.
func (w *World) sampleText(topics []topic, mix []float64, n int) string {
	total := 0.0
	for _, m := range mix {
		total += m
	}
	buf := make([]byte, 0, n*10)
	for i := 0; i < n; i++ {
		r := w.rng.Float64() * total
		t := 0
		for t < len(mix)-1 && r > mix[t] {
			r -= mix[t]
			t++
		}
		words := topics[t].words
		word := words[w.rng.Intn(len(words))]
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, word...)
	}
	return string(buf)
}
