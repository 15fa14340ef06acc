package synth

import (
	"math"
	"math/rand"
	"slices"

	"telcochurn/internal/table"
)

// SimulateMonth advances the world one month and returns every raw table for
// that month. See DESIGN.md §5 for the generative model.
func (w *World) SimulateMonth() *MonthData {
	month := w.month
	md := &MonthData{
		Month:      month,
		Calls:      w.newTable(TableCalls, CallsSchema),
		Messages:   w.newTable(TableMessages, MessagesSchema),
		Recharges:  w.newTable(TableRecharges, RechargesSchema),
		Billing:    w.newTable(TableBilling, BillingSchema),
		Customers:  w.newTable(TableCustomers, CustomersSchema),
		Complaints: w.newTable(TableComplaints, ComplaintsSchema),
		Web:        w.newTable(TableWeb, WebSchema),
		Search:     w.newTable(TableSearch, SearchSchema),
		Locations:  w.newTable(TableLocations, LocationsSchema),
		Truth:      w.newTable(TableTruth, TruthSchema),
	}

	w.rollCellShocks()
	w.rollCommunityShocks()

	// Deterministic iteration over customers.
	ids := make([]int64, 0, len(w.customers))
	for id := range w.customers {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	churnedThisMonth := make(map[int64]bool)
	var removed []int64

	for _, id := range ids {
		c := w.customers[id]
		// Capture the phase at month start: simulateCustomerMonth advances
		// signal-phase customers to phaseChurn for next month, and only
		// customers who lived their churn month leave the population.
		wasChurnMonth := c.phase == phaseChurn
		w.simulateCustomerMonth(md, c)
		if c.churnedNow {
			churnedThisMonth[id] = true
		}
		if wasChurnMonth {
			removed = append(removed, id)
		}
	}

	// End-of-month churn decisions for surviving actives, using this month's
	// labeled churners for social contagion.
	for _, id := range ids {
		c := w.customers[id]
		if c.phase != phaseActive {
			continue
		}
		w.decideChurn(c, churnedThisMonth)
	}

	// Remove completed churners, replace with new entrants.
	if len(removed) > 0 {
		for _, id := range removed {
			delete(w.customers, id)
		}
		r := w.newRoster(ids)
		for range removed {
			nc := w.newCustomer(w.rng.Intn(w.numCommunities))
			w.customers[nc.id] = nc
			w.assignNeighbors(nc, r.byCommunity[nc.community], r.all)
			r.add(nc)
		}
		w.pruneDeadNeighbors(removed, r)
	}

	for name, t := range md.Tables() {
		w.rows[name] = t.NumRows()
	}
	w.churnedLast = churnedThisMonth
	w.month++
	return md
}

// newTable returns an empty table with room for last month's row count of
// the same table and a sixteenth more, so a steady month's appends never
// regrow its columns.
func (w *World) newTable(name string, s *table.Schema) *table.Table {
	t := table.NewTable(s)
	if n := w.rows[name]; n > 0 {
		t.Grow(n + n/16)
	}
	return t
}

// Simulate runs the whole configured horizon and returns one MonthData per
// month.
func Simulate(cfg Config) []*MonthData {
	w := NewWorld(cfg)
	months := make([]*MonthData, 0, w.cfg.Months)
	for i := 0; i < w.cfg.Months; i++ {
		months = append(months, w.SimulateMonth())
	}
	return months
}

func (w *World) rollCellShocks() {
	for _, cl := range w.cells {
		// AR(1): shocks persist ~2-3 months; occasionally a cell degrades hard.
		cl.shock = clamp(float64(0.6*cl.shock)+float64(0.25*w.rng.ExpFloat64()*cl.baseQuality), 0, 1)
		if w.rng.Float64() < 0.02 {
			cl.shock = clamp(cl.shock+0.5+float64(0.3*w.rng.Float64()), 0, 1)
		}
	}
}

func (w *World) rollCommunityShocks() {
	// A community shock models e.g. a competitor promotion hitting one
	// campus: members search competitor terms this month and churn together
	// over the next months. This is what makes co-occurrence-graph label
	// propagation (F6) informative.
	for k := range w.communityShock {
		w.communityShock[k] *= 0.5
		if w.communityShock[k] < 0.05 {
			delete(w.communityShock, k)
		}
	}
	for com := 0; com < w.numCommunities; com++ {
		if w.rng.Float64() < 0.02 {
			w.communityShock[com] = 1.0
		}
	}
}

// activityDay samples the day-of-month for one usage event. Active
// customers are uniform; scripted churners shift toward the start of the
// month, producing the within-month usage decline that is the classic
// baseline churn signal (and that makes the F1 decline features work).
func (w *World) activityDay(c *customer) int {
	dpm := float64(w.cfg.DaysPerMonth)
	var d int
	switch c.phase {
	case phaseSignal:
		d = 1 + int(dpm*w.rng.Float64()*w.rng.Float64())
	case phaseChurn:
		r := w.rng.Float64()
		d = 1 + int(dpm*r*r*r)
	default:
		d = 1 + w.rng.Intn(w.cfg.DaysPerMonth)
	}
	if d > w.cfg.DaysPerMonth {
		d = w.cfg.DaysPerMonth
	}
	return d
}

// activityFactor returns the usage multiplier for the customer's phase.
func (w *World) activityFactor(c *customer) float64 {
	switch c.phase {
	case phaseEarly:
		return 0.65 + float64(0.08*w.rng.NormFloat64())
	case phaseSignal:
		return 0.45 + float64(0.1*w.rng.NormFloat64())
	case phaseChurn:
		return 0.12 + float64(0.05*w.rng.NormFloat64())
	default:
		return clamp(1+float64(0.15*w.rng.NormFloat64()), 0.3, 2.0)
	}
}

func (w *World) simulateCustomerMonth(md *MonthData, c *customer) {
	activity := clamp(w.activityFactor(c), 0.02, 3)
	cellQ := w.experiencedCell(c)

	voiceCharge, voiceStats := w.emitCalls(md, c, activity, cellQ)
	smsCharge, giftSMS := w.emitMessages(md, c, activity)
	dataCharge, flux := w.emitWeb(md, c, activity, cellQ)
	w.emitSearch(md, c, activity)
	w.emitComplaints(md, c)
	w.emitLocations(md, c, activity)

	totalCharge := voiceCharge + smsCharge + dataCharge
	c.prevCharge = totalCharge

	// Balance and recharge mechanics (the labeling rule's substrate).
	rechargeValue, inRecharge, daysToRecharge, labeledChurn := w.settleBalance(md, c, totalCharge)
	c.churnedNow = labeledChurn

	// Monthly snapshots.
	giftFlux := 0.0
	if c.productKind == 2 {
		giftFlux = 200
	}
	month := int64(md.Month)
	md.Billing.Append().Int(c.id).Int(month).Float(c.balance).
		Float(totalCharge).Float(rechargeValue).
		Float(safeDiv(rechargeValue, c.balance+1)).Float(flux).
		Float(dataCharge).Float(smsCharge).Float(giftFlux).
		Float(voiceStats.giftDur).Int(int64(giftSMS)).Done()
	md.Customers.Append().Int(c.id).Int(month).Int(int64(c.age)).
		Int(int64(c.gender)).Int(int64(c.psptType)).Int(int64(c.isShanghai)).
		Int(int64(c.townID)).Int(int64(c.saleID)).Int(int64(c.productID)).
		Float(c.productPrice).Int(int64(c.productKind)).Float(c.creditValue).
		Int(int64(c.innetMonths)).Done()
	md.Truth.Append().Int(c.id).Int(month).Int(boolToInt64(labeledChurn)).
		Int(boolToInt64(inRecharge)).Int(int64(daysToRecharge)).
		Int(boolToInt64(c.phase == phaseChurn)).Int(int64(c.bestOffer)).
		Float(c.retainBase).Done()

	// Latent dissatisfaction follows experienced quality with persistence.
	c.dissat = clamp(float64(0.6*c.dissat)+float64(0.65*cellQ.shock)+float64(0.1*w.communityShock[c.community])+float64(0.05*(float64(w.rng.Float64())-0.4)), 0, 1.5)
	c.innetMonths++

	// Phase transitions for scripted churners.
	switch c.phase {
	case phaseEarly:
		if w.rng.Float64() < 0.04 {
			c.phase = phaseActive // recovered before committing
		} else {
			c.phase = phaseSignal
		}
	case phaseSignal:
		if w.rng.Float64() < 0.05 {
			c.phase = phaseActive // changed their mind: a high-scoring false positive
		} else {
			c.phase = phaseChurn
		}
	}
}

type experienced struct {
	shock    float64
	baseTP   float64
	baseMOS  float64
	baseDrop float64
	delay    float64
}

func (w *World) experiencedCell(c *customer) experienced {
	cl := w.cells[c.homeCell]
	alt := w.cells[c.altCells[0]]
	// Mostly home cell, partly an alternate.
	mix := func(a, b float64) float64 { return float64(0.8*a) + float64(0.2*b) }
	return experienced{
		shock:    clamp(mix(cl.shock, alt.shock)+c.qualityBias+float64(0.05*w.rng.NormFloat64()), 0, 1),
		baseTP:   mix(cl.baseTP, alt.baseTP),
		baseMOS:  mix(cl.baseMOS, alt.baseMOS),
		baseDrop: mix(cl.baseDrop, alt.baseDrop),
		delay:    mix(cl.baseDelay, alt.baseDelay),
	}
}

type voiceEmission struct {
	giftDur float64
}

var festivalDays = map[int]bool{1: true, 15: true, 30: true}

func (w *World) emitCalls(md *MonthData, c *customer, activity float64, q experienced) (charge float64, stats voiceEmission) {
	n := w.poisson(w.cfg.CallsPerMonth * c.voiceAppetite * activity)
	for i := 0; i < n; i++ {
		day := w.activityDay(c)
		peer, peerOp := w.pickCallPeer(c)
		kind := w.pickCallKind()
		mo := boolToInt(w.rng.Float64() < 0.55)
		success := 1
		if w.rng.Float64() < 0.02+float64(0.15*q.shock) {
			success = 0
		}
		dur, dropped := 0.0, 0
		connDelay := q.delay * (0.8 + float64(0.4*w.rng.Float64())) * (1 + float64(2.5*q.shock))
		mosDL := clamp(q.baseMOS-float64(1.6*q.shock)+float64(0.2*w.rng.NormFloat64()), 1, 5)
		mosUL := clamp(mosDL-0.1+float64(0.2*w.rng.NormFloat64()), 1, 5)
		mosIP := clamp(mosDL-0.2+float64(0.25*w.rng.NormFloat64()), 1, 5)
		oneway := boolToInt(w.rng.Float64() < 0.002+float64(0.03*q.shock))
		noise := boolToInt(w.rng.Float64() < 0.005+float64(0.05*q.shock))
		echo := boolToInt(w.rng.Float64() < 0.003+float64(0.02*q.shock))
		if success == 1 {
			dur = w.rng.ExpFloat64() * 110 * (0.5 + float64(activity/2))
			if w.rng.Float64() < q.baseDrop*(1+float64(4*q.shock)) {
				dropped = 1
				dur *= w.rng.Float64()
			}
		}
		free := boolToInt(w.rng.Float64() < 0.25)
		gift := boolToInt(free == 0 && w.rng.Float64() < 0.08)
		if gift == 1 {
			stats.giftDur += dur
		}
		busy := boolToInt(w.rng.Float64() < 0.3)
		fest := boolToInt(festivalDays[day])
		if success == 1 && free == 0 && gift == 0 && mo == 1 {
			rate := 0.15 // yuan per minute
			if kind == CallLongDist {
				rate = 0.3
			} else if kind == CallRoam {
				rate = 0.6
			}
			charge += float64(dur / 60 * rate)
		}
		md.Calls.Append().Int(c.id).Int(peer).Int(int64(md.Month)).Int(int64(day)).
			Float(dur).Int(int64(kind)).Int(int64(mo)).Int(int64(peerOp)).
			Int(int64(success)).Int(int64(dropped)).Float(connDelay).
			Float(mosUL).Float(mosDL).Float(mosIP).Int(int64(oneway)).
			Int(int64(noise)).Int(int64(echo)).Int(int64(busy)).Int(int64(fest)).
			Int(int64(free)).Int(int64(gift)).Int(0).Int(0).Done()
	}
	// Service-line calls: rise with dissatisfaction, but noisy and rare
	// (the paper: most churners do not complain before churning).
	svcCalls := w.poisson(0.1 + float64(0.8*c.dissat*c.complaintProp))
	for i := 0; i < svcCalls; i++ {
		day := 1 + w.rng.Intn(w.cfg.DaysPerMonth)
		manual := boolToInt(w.rng.Float64() < 0.5)
		md.Calls.Append().Int(c.id).Int(10010).Int(int64(md.Month)).Int(int64(day)).
			Float(60 + float64(w.rng.ExpFloat64()*120)).Int(CallLocalInner).Int(1).
			Int(OpSelf).Int(1).Int(0).Float(1).Float(4).Float(4).Float(4).
			Int(0).Int(0).Int(0).Int(0).Int(0).Int(1).Int(0).Int(1).
			Int(int64(manual)).Done()
	}
	return charge, stats
}

func (w *World) pickCallPeer(c *customer) (int64, int) {
	r := w.rng.Float64()
	switch {
	case r < 0.8 && len(c.neighbors) > 0:
		return c.neighbors[w.rng.Intn(len(c.neighbors))], OpSelf
	case r < 0.9:
		// Off-net peer: synthetic number spaces per operator.
		if w.rng.Float64() < 0.6 {
			return 5_000_000 + int64(w.rng.Intn(1_000_000)), OpChinaMobile
		}
		return 6_000_000 + int64(w.rng.Intn(1_000_000)), OpChinaTelecom
	default:
		// Random on-net stranger.
		return 1_000_000 + int64(w.rng.Intn(len(w.customers))), OpSelf
	}
}

func (w *World) pickCallKind() int {
	r := w.rng.Float64()
	switch {
	case r < 0.55:
		return CallLocalInner
	case r < 0.78:
		return CallLocalOuter
	case r < 0.93:
		return CallLongDist
	default:
		return CallRoam
	}
}

func (w *World) emitMessages(md *MonthData, c *customer, activity float64) (charge float64, giftCnt int) {
	n := w.poisson(w.cfg.MessagesPerMonth * c.smsAppetite * activity)
	for i := 0; i < n; i++ {
		day := w.activityDay(c)
		var peer int64
		peerOp := OpSelf
		if len(c.msgPeers) > 0 && w.rng.Float64() < 0.7 {
			peer = c.msgPeers[w.rng.Intn(len(c.msgPeers))]
		} else {
			peer, peerOp = w.pickCallPeer(c)
		}
		mo := boolToInt(w.rng.Float64() < 0.5)
		mms := boolToInt(w.rng.Float64() < 0.15)
		roamInt := boolToInt(w.rng.Float64() < 0.01)
		gift := boolToInt(w.rng.Float64() < 0.1)
		if gift == 1 {
			giftCnt++
		}
		if mo == 1 && gift == 0 {
			charge += 0.1
		}
		md.Messages.Append().Int(c.id).Int(peer).Int(int64(md.Month)).
			Int(int64(day)).Int(MsgP2P).Int(int64(mo)).Int(int64(mms)).
			Int(int64(peerOp)).Int(int64(roamInt)).Int(int64(gift)).Done()
	}
	// Non-social messages: info-on-demand, billing notices, service SMS.
	for i, kind := range []int{MsgInfo, MsgBilling, MsgService} {
		rate := []float64{0.5, 2.0, 1.0}[i]
		for j := 0; j < w.poisson(rate); j++ {
			day := 1 + w.rng.Intn(w.cfg.DaysPerMonth)
			md.Messages.Append().Int(c.id).Int(int64(10000 + kind)).
				Int(int64(md.Month)).Int(int64(day)).Int(int64(kind)).
				Int(0).Int(0).Int(OpSelf).Int(0).Int(0).Done()
		}
	}
	return charge, giftCnt
}

func (w *World) emitWeb(md *MonthData, c *customer, activity float64, q experienced) (charge, flux float64) {
	meanDays := w.cfg.DataDaysPerMonth * math.Min(c.dataAppetite, 1.4) * activity
	days := w.poisson(meanDays)
	if days > w.cfg.DaysPerMonth {
		days = w.cfg.DaysPerMonth
	}
	// Distinct active days, phase-aware: churning customers' data days
	// cluster early in the month like their other activity. Sorted so RNG
	// consumption stays deterministic.
	seen := make(map[int]bool, days)
	for len(seen) < days {
		seen[w.activityDay(c)] = true
	}
	activeDays := make([]int, 0, len(seen))
	for day := range seen {
		activeDays = append(activeDays, day)
	}
	slices.Sort(activeDays)
	for _, day := range activeDays {
		pages := 1 + w.poisson(28*c.dataAppetite*activity)
		succRate := clamp(0.97-float64(0.25*q.shock)-float64(0.02*w.rng.Float64()), 0.3, 1)
		succ := binomialApprox(w, pages, succRate)
		respDelay := q.delay * (1 + float64(2.2*q.shock)) * (0.7 + float64(0.6*w.rng.Float64()))
		browseSucc := binomialApprox(w, succ, clamp(0.98-float64(0.15*q.shock), 0.4, 1))
		browseDelay := respDelay * (1.5 + float64(0.5*w.rng.Float64()))
		// Throughput shrinks with cell degradation AND with the customer's
		// own disengagement — the paper's #2 feature.
		dlTP := q.baseTP * (1 - float64(0.45*q.shock)) * (0.45 + float64(0.55*clamp(activity, 0, 1.3))) * (0.85 + float64(0.3*w.rng.Float64()))
		ulTP := dlTP * (0.18 + float64(0.1*w.rng.Float64()))
		pageSize := 180 + float64(240*w.rng.Float64()) // KB
		dayFlux := float64(float64(pages)*pageSize/1024) + float64(w.rng.ExpFloat64()*12*c.dataAppetite*activity)
		tcpAtt := pages + w.poisson(8)
		tcpOK := binomialApprox(w, tcpAtt, clamp(0.99-float64(0.2*q.shock), 0.5, 1))
		rtt := (40 + float64(160*q.shock)) * (0.8 + float64(0.4*w.rng.Float64()))
		streamSize := w.rng.ExpFloat64() * 35 * c.dataAppetite * activity
		streamPkts := streamSize * 700
		emailCnt := w.poisson(1.2)
		emailOK := binomialApprox(w, emailCnt, 0.97)
		md.Web.Append().Int(c.id).Int(int64(md.Month)).Int(int64(day)).
			Int(int64(pages)).Int(int64(succ)).Float(respDelay).
			Int(int64(browseSucc)).Float(browseDelay).Float(dlTP).Float(ulTP).
			Float(dayFlux).Float(rtt).Int(int64(tcpOK)).Int(int64(tcpAtt)).
			Float(streamSize).Float(streamPkts).Int(int64(emailCnt)).
			Int(int64(emailOK)).Float(pageSize).Done()
		flux += dayFlux
	}
	rate := 0.29
	if c.productKind >= 1 {
		rate = 0.1 // data-bundle products
	}
	charge = flux * rate * 0.1
	return charge, flux
}

func (w *World) emitSearch(md *MonthData, c *customer, activity float64) {
	n := w.poisson(w.cfg.SearchesPerMonth * math.Min(c.dataAppetite, 1.5) * clamp(activity, 0.3, 1.5))
	if n == 0 {
		return
	}
	// Competitor-topic weight: the paper's key F8 signal. It rises with
	// latent dissatisfaction (weak early signal), community competitor
	// promotions, and spikes in the signal month.
	competitor := 0.04 + float64(1.1*c.dissat) + float64(0.8*w.communityShock[c.community])
	if c.phase == phaseEarly {
		competitor += 0.4
	}
	if c.phase == phaseSignal {
		competitor += 0.9
	}
	if c.phase == phaseChurn {
		competitor += 0.8
	}
	mix := []float64{competitor, 0.7, 1.0, 1.0, 0.9, 0.8}
	for i := 0; i < n; i++ {
		day := w.activityDay(c)
		words := 2 + w.rng.Intn(4)
		md.Search.Append().Int(c.id).Int(int64(md.Month)).Int(int64(day)).
			String(w.sampleText(searchTopics, mix, words)).Done()
	}
}

func (w *World) emitComplaints(md *MonthData, c *customer) {
	// Complaints are rare and only loosely tied to churn: a majority of
	// churners never complain (paper Section 5.3's F7 result).
	n := w.poisson(c.complaintProp * (0.2 + float64(1.5*c.dissat)))
	for i := 0; i < n; i++ {
		day := 1 + w.rng.Intn(w.cfg.DaysPerMonth)
		mix := []float64{0.4 + float64(1.5*c.dissat), 0.8, 0.6, 0.5}
		words := 4 + w.rng.Intn(6)
		md.Complaints.Append().Int(c.id).Int(int64(md.Month)).Int(int64(day)).
			String(w.sampleText(complaintTopics, mix, words)).Done()
	}
}

func (w *World) emitLocations(md *MonthData, c *customer, activity float64) {
	fixes := w.poisson(w.cfg.LocationFixesPerDay * float64(w.cfg.DaysPerMonth) * clamp(activity, 0.2, 1.2))
	for i := 0; i < fixes; i++ {
		day := w.activityDay(c)
		slot := w.rng.Intn(3)
		cellIdx := c.homeCell
		r := w.rng.Float64()
		if r > 0.9 {
			cellIdx = w.rng.Intn(len(w.cells))
		} else if r > 0.6 {
			cellIdx = c.altCells[w.rng.Intn(len(c.altCells))]
		}
		cl := w.cells[cellIdx]
		md.Locations.Append().Int(c.id).Int(int64(md.Month)).Int(int64(day)).
			Int(int64(slot)).Int(int64(cl.id)).Int(int64(cl.lac)).
			Float(cl.lat).Float(cl.lon).Done()
	}
}

// settleBalance applies charges, decides recharge-period entry, recharges,
// and produces the churn label per the paper's 15-day rule.
func (w *World) settleBalance(md *MonthData, c *customer, charge float64) (rechargeValue float64, inRecharge bool, daysToRecharge int, labeledChurn bool) {
	const lowWater = 10.0
	c.balance -= charge
	switch c.phase {
	case phaseChurn:
		// Depleted; enters recharge period and never recharges.
		if c.balance > lowWater {
			c.balance = lowWater * w.rng.Float64()
		}
		c.balance = clamp(c.balance, 0, lowWater)
		return 0, true, 0, true
	case phaseSignal:
		// Stops topping up; balance drains but we keep them just above the
		// recharge threshold so the labeled churn lands next month.
		if c.balance < lowWater+2 {
			c.balance = lowWater + 2 + float64(3*w.rng.Float64())
		}
		return 0, false, 0, false
	}
	if c.balance >= lowWater {
		return 0, false, 0, false
	}
	// Active customer in recharge period: recharges after a small number of
	// days; ~2.4% exceed the 15-day rule and get (noisily) labeled churners
	// even though they stay (Figure 5's tail).
	inRecharge = true
	daysToRecharge = 1 + int(w.rng.ExpFloat64()*4)
	if daysToRecharge > w.cfg.DaysPerMonth {
		daysToRecharge = w.cfg.DaysPerMonth
	}
	labeledChurn = daysToRecharge > 15
	amount := c.productPrice
	for c.balance < lowWater {
		c.balance += amount
		rechargeValue += amount
		day := clamp(float64(daysToRecharge), 1, float64(w.cfg.DaysPerMonth))
		md.Recharges.Append().Int(c.id).Int(int64(md.Month)).Int(int64(day)).
			Float(amount).Done()
	}
	return rechargeValue, inRecharge, daysToRecharge, labeledChurn
}

// personalQualityBias samples the persistent per-customer coverage handicap:
// most customers experience their cell's quality as-is, a minority suffer a
// lasting penalty (poor home coverage, an old handset). This is the stable
// quality signal the CS/PS KPI features pick up month after month.
func personalQualityBias(r *rand.Rand) float64 {
	if r.Float64() < 0.7 {
		return 0
	}
	return clamp(0.35*r.ExpFloat64(), 0, 0.9)
}

// decideChurn draws the churn decision for an active customer at month end.
func (w *World) decideChurn(c *customer, churned map[int64]bool) {
	neighborChurn := 0.0
	if len(c.neighbors) > 0 {
		n := 0
		for _, id := range c.neighbors {
			if churned[id] {
				n++
			}
		}
		neighborChurn = float64(n) / float64(len(c.neighbors))
	}
	lowBalance := clamp(1-c.balance/50, 0, 1)
	// Herd effect: losing several call partners in one month is a much
	// stronger push than losing one — this is what call-graph label
	// propagation (F4) detects.
	herd := 0.0
	if neighborChurn > 0.2 {
		herd = 1.4
	}
	shortTenureLowSpend := 0.0
	if c.innetMonths < 6 && c.prevCharge < 15 {
		// The interaction the paper's F9 finds: short tenure alone or low
		// spend alone are weak; the product is a real signal.
		shortTenureLowSpend = 1.0
	}
	z := w.cfg.BaseChurnHazard +
		float64(1.4*c.dissat) +
		float64(1.0*lowBalance) +
		float64(0.9*(1-c.loyalty)) +
		float64(0.7*c.priceSens) +
		float64(2.0*neighborChurn) +
		herd +
		float64(0.7*w.communityShock[c.community]) +
		float64(1.2*shortTenureLowSpend) -
		float64(0.35*math.Min(c.sociality, 2)) +
		float64(0.5*w.rng.NormFloat64())
	pMain := sigmoid(z)
	// Dedicated quality-victim pathway: churn probability rises steeply
	// with sustained bad experience, concentrating this churn mode among
	// the customers whose CS/PS KPIs look worst — the headroom the paper's
	// F2/F3 groups exploit (Table 2's 12-15% PR-AUC lifts).
	pQuality := sigmoid(-6.5 + float64(7.5*c.dissat))
	p := 1 - float64((1-pMain)*(1-pQuality))
	if w.rng.Float64() < p {
		qualityDriven := w.rng.Float64() < pQuality/p
		// Abrupt churners skip the behavioral signal month, so baseline BSS
		// features cannot see them coming. Quality-, contagion- and
		// community-driven churn is disproportionately abrupt (a quality
		// victim or a customer whose neighbor ported out leaves within
		// weeks), which is what gives the OSS groups F2-F8 their headroom.
		abrupt := 0.08 + float64(1.6*neighborChurn) + float64(0.35*w.communityShock[c.community])
		if qualityDriven {
			abrupt += 0.6
		}
		switch {
		case w.rng.Float64() < clamp(abrupt, 0, 0.8):
			c.phase = phaseChurn
			c.abruptChurn = true
		case w.rng.Float64() < 0.55:
			// Slow goodbye: a mild precursor month before the signal month.
			c.phase = phaseEarly
		default:
			c.phase = phaseSignal
		}
	}
}

// pruneDeadNeighbors replaces departed customers in neighbor lists with
// random same-community actives, keeping call volumes stable. r is this
// month's roster, entrants included.
func (w *World) pruneDeadNeighbors(removed []int64, r *roster) {
	dead := make(map[int64]bool, len(removed))
	for _, id := range removed {
		dead[id] = true
	}
	for _, id := range r.all {
		c := w.customers[id]
		for i, n := range c.neighbors {
			if !dead[n] {
				continue
			}
			pool := r.byCommunity[c.community]
			if len(pool) > 1 {
				c.neighbors[i] = pool[w.rng.Intn(len(pool))]
			}
		}
	}
}

// ---- small numeric helpers ----

func (w *World) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates keeps generation fast.
		v := lambda + float64(math.Sqrt(lambda)*w.rng.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= w.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func binomialApprox(w *World, n int, p float64) int {
	if n <= 0 {
		return 0
	}
	p = clamp(p, 0, 1)
	if n < 16 {
		k := 0
		for i := 0; i < n; i++ {
			if w.rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(float64(n) * p)
	sd := math.Sqrt(mean * (1 - p))
	v := int(mean + float64(sd*w.rng.NormFloat64()) + 0.5)
	if v < 0 {
		v = 0
	}
	if v > n {
		v = n
	}
	return v
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
