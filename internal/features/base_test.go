package features

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

func TestNewFrameSortsAndDeduplicates(t *testing.T) {
	for _, tc := range []struct {
		in, want []int64
	}{
		{nil, []int64{}},
		{[]int64{5, -1, 3}, []int64{-1, 3, 5}},
		{[]int64{-1, -1, -1}, []int64{-1}},
		{[]int64{math.MinInt64, 0, math.MinInt64, -1}, []int64{math.MinInt64, -1, 0}},
		{[]int64{7, 7, 2, 7, 2}, []int64{2, 7}},
		{[]int64{math.MaxInt64, math.MinInt64}, []int64{math.MinInt64, math.MaxInt64}},
	} {
		f := NewFrame(tc.in)
		if got := f.IDs(); !slices.Equal(got, tc.want) {
			t.Errorf("NewFrame(%v) rows = %v, want %v", tc.in, got, tc.want)
		}
		for r, id := range f.IDs() {
			if f.index[id] != r {
				t.Errorf("NewFrame(%v): index[%d] = %d, want %d", tc.in, id, f.index[id], r)
			}
		}
	}
}

// naiveBase recomputes F1–F3 row by row with plain maps (row-order sums, counts,
// means, ratios and declines keyed on kept rows, distinct raw values, last-row-wins
// snapshots, ranked stay cells): the universe, with repeats, and each cell by name.
func naiveBase(tbl Tables, win Window, days int) ([]int64, func(name string, id int64) float64) {
	type key = [2]any // column or tally name, customer
	sum, cnt, last, seen := map[key]float64{}, map[key]float64{}, map[key]int{}, map[[3]any]bool{}
	add := func(id int64, x float64, conds map[string]bool) {
		for name, c := range conds {
			if c {
				sum[key{name, id}] += x
				cnt[key{name, id}]++
			}
		}
	}
	first := func(k [3]any) bool { n := len(seen); seen[k] = true; return len(seen) > n } // a new distinct value
	scan := func(name string, t *table.Table, fn func(id int64, half string, v func(string) float64)) {
		for i, id := range t.MustCol("imsi").Ints {
			v := func(col string) float64 { return t.MustCol(col).Float(i) }
			if abs := AbsDay(int(v("month")), int(v("day")), days); abs >= win.FromAbs && abs <= win.ToAbs {
				last[key{name, id}] = max(last[key{name, id}], abs-win.FromAbs+1) // from the window start; 0: no row
				fn(id, map[bool]string{true: "_fh", false: "_sh"}[abs <= (win.FromAbs+win.ToAbs)/2], v)
			}
		}
	}
	scan("calls", tbl.Calls, func(id int64, half string, v func(string) float64) {
		mo, mt, ok, k, svc := v("mo") == 1, v("mo") == 0, v("success") == 1, v("kind"), v("svc")
		local, ld, roam := k == synth.CallLocalInner || k == synth.CallLocalOuter, k == synth.CallLongDist, k == synth.CallRoam
		add(id, v("dur"), map[string]bool{"localbase_inner_call_dur": mo && ok && k == synth.CallLocalInner && svc == 0,
			"localbase_outer_call_dur": mo && ok && k == synth.CallLocalOuter, "ld_call_dur": mo && ok && ld, "roam_call_dur": mo && ok && roam,
			"localbase_called_dur": mt && ok && local, "ld_called_dur": mt && ok && ld, "roam_called_dur": mt && ok && roam,
			"cm_dur": ok && v("peer_op") == synth.OpChinaMobile, "ct_dur": ok && v("peer_op") == synth.OpChinaTelecom,
			"busy_call_dur": mo && ok && v("busy") == 1, "fest_call_dur": mo && ok && v("fest") == 1, "free_call_dur": ok && v("free") == 1,
			"gift_voice_call_dur": ok && v("gift") == 1, "voice_dur": ok, "caller_dur": mo && ok, "local_call_minutes": mo && ok && local,
			"toll_call_minutes": mo && ok && ld, "roam_call_minutes": mo && ok && roam, "voice_call_minutes": ok, "call_dur_decline" + half: ok})
		add(id, 1, map[string]bool{"all_call_cnt": true, "voice_cnt": ok, "local_base_call_cnt": mo && local && svc == 0,
			"ld_call_cnt": mo && ld, "roam_call_cnt": mo && roam, "caller_cnt": mo, "call_10010_cnt": svc == 1,
			"call_10010_manual_cnt": v("manual") == 1, "placed": svc == 0, "answered": svc == 0 && ok, "dropped": svc == 0 && v("dropped") == 1,
			"active_call_days": first([3]any{"active_call_days", id, v("day")})})
		for col, name := range map[string]string{"conn_delay": "e2e_conn_delay", "mos_ul": "uplink_mos", "mos_dl": "voice_quality",
			"mos_ip": "ip_mos", "oneway": "oneway_audio_cnt", "noise": "noise_cnt", "echo": "echo_cnt"} {
			add(id, v(col), map[string]bool{name: svc == 0 && (ok || strings.HasSuffix(name, "_cnt"))}) // means over answered calls
		}
	})
	scan("messages", tbl.Messages, func(id int64, _ string, v func(string) float64) {
		k, op, mo, sms, mms := v("kind"), v("peer_op"), v("mo") == 1, v("mms") == 0, v("mms") == 1
		p2pMO, p2pMT := k == synth.MsgP2P && mo, k == synth.MsgP2P && v("mo") == 0
		add(id, 1, map[string]bool{"sms_p2p_inner_mo_cnt": p2pMO && sms && op == synth.OpSelf, "sms_p2p_other_mo_cnt": p2pMO && sms && op != synth.OpSelf,
			"sms_p2p_cm_mo_cnt": p2pMO && sms && op == synth.OpChinaMobile, "sms_p2p_ct_mo_cnt": p2pMO && sms && op == synth.OpChinaTelecom,
			"sms_info_mo_cnt": k == synth.MsgInfo, "sms_p2p_roam_int_mo_cnt": p2pMO && sms && v("roam_int") == 1, "sms_bill_cnt": k == synth.MsgBilling,
			"sms_p2p_mt_cnt": p2pMT && sms, "serve_sms_count": k == synth.MsgService, "mms_cnt": mms, "p2p_sms_mo_cnt": p2pMO && sms,
			"mms_p2p_inner_mo_cnt": p2pMO && mms && op == synth.OpSelf, "mms_p2p_other_mo_cnt": p2pMO && mms && op != synth.OpSelf,
			"mms_p2p_mt_cnt": p2pMT && mms, "gift_sms_mo_cnt": mo && v("gift") == 1,
			"distinct_serve_count": k == synth.MsgService && first([3]any{"distinct_serve_count", id, v("peer")})})
	})
	scan("recharges", tbl.Recharges, func(id int64, _ string, _ func(string) float64) { add(id, 1, map[string]bool{"recharge_cnt": true}) })
	scan("complaints", tbl.Complaints, func(id int64, _ string, _ func(string) float64) { add(id, 1, map[string]bool{"complaint_cnt": true}) })
	scan("web", tbl.Web, func(id int64, half string, v func(string) float64) {
		add(id, 1, map[string]bool{"ps_active_days": first([3]any{"ps_active_days", id, v("day")})})
		add(id, v("flux"), map[string]bool{"gprs_all_flux": true, "ps_flux": true, "flux_decline" + half: true})
		for col, name := range map[string]string{"stream_size": "streaming_filesize", "stream_pkts": "streaming_dw_packets", "page_req": "page_cnt",
			"resp_delay": "page_response_delay", "browse_delay": "page_browsing_delay", "dl_tp": "page_download_throughput", "ul_tp": "upload_throughput",
			"page_size": "page_size_mean", "tcp_rtt": "tcp_rtt", "page_succ": "page_succ", "browse_succ": "browse_succ", "tcp_ok": "tcp_ok",
			"tcp_att": "tcp_att", "email_cnt": "email_cnt", "email_ok": "email_ok"} {
			add(id, v(col), map[string]bool{name: true})
		}
	})
	cells, cellN, cellAt := map[int64][]int64{}, map[[2]int64]int{}, map[[2]int64][2]float64{} // first-seen cells; visits, first lat/lon
	scan("locations", tbl.Locations, func(id int64, _ string, v func(string) float64) {
		c := [2]int64{id, int64(v("cell"))}
		if cellN[c]++; cellN[c] == 1 {
			cells[id], cellAt[c] = append(cells[id], c[1]), [2]float64{v("lat"), v("lon")}
		}
	})
	snap, rename, ids := int64(win.SnapshotMonth(days)), map[string]string{"sms_charge": "p2p_sms_mo_charge", "gift_flux": "gift_flux_value"}, []int64{}
	for t, cols := range map[*table.Table][]string{
		tbl.Billing:   {"balance", "total_charge", "recharge_value", "balance_rate", "gprs_flux", "gprs_charge", "sms_charge", "gift_flux"},
		tbl.Customers: {"age", "gender", "pspt_type", "is_shanghai", "town_id", "sale_id", "product_id", "product_price", "product_knd", "credit_value", "innet_dura"}} {
		for i, id := range t.MustCol("imsi").Ints {
			for _, col := range cols {
				if t.MustCol("month").Ints[i] == snap {
					sum[key{cmp.Or(rename[col], col), id}], ids = t.MustCol(col).Float(i), append(ids, id)
				}
			}
		}
	}
	ratios := map[string][2]string{"call_success_rate": {"answered", "placed"}, "call_drop_rate": {"dropped", "answered"},
		"page_response_success_rate": {"page_succ", "page_cnt"}, "page_browsing_success_rate": {"browse_succ", "page_succ"},
		"tcp_conn_rate": {"tcp_ok", "tcp_att"}, "email_success_rate": {"email_ok", "email_cnt"}}
	means := " e2e_conn_delay uplink_mos voice_quality ip_mos page_response_delay page_browsing_delay page_download_throughput upload_throughput tcp_rtt page_size_mean "
	return ids, func(name string, id int64) float64 {
		k, fh, sh, r := key{name, id}, key{name + "_fh", id}, key{name + "_sh", id}, ratios[name]
		decline, den := map[string]float64{"call_dur_decline": 60, "flux_decline": 5}[name], key{r[1], id}
		switch {
		case r[0] != "" && (cnt[den] == 0 || sum[den] == 0):
			return b2f(name != "call_drop_rate") // the drop rate defaults to 0, the other ratios to 1
		case r[0] != "":
			return sum[key{r[0], id}] / sum[den]
		case strings.Contains(means, " "+name+" ") && cnt[k] > 0:
			return sum[k] / cnt[k]
		case strings.HasSuffix(name, "_minutes"):
			return sum[k] * (1.0 / 60)
		case decline != 0 && cnt[fh] > 0:
			return sum[sh] / (sum[fh] + decline)
		case decline != 0 && cnt[sh] > 0:
			return sum[sh] / decline
		case name == "last_active_day":
			return float64(max(last[key{"calls", id}], last[key{"web", id}]))
		case name == "last_recharge_day":
			return float64(last[key{"recharges", id}])
		case name == "loc_distinct_cells":
			return float64(len(cells[id]))
		case strings.HasPrefix(name, "loc_top"): // loc_top<k>_lat / _lon; padding cells have no visits and sit at 0, 0
			ranked, top := append(slices.Clone(cells[id]), -1, -1, -1, -1), int(name[len("loc_top")]-'0')
			slices.Sort(ranked) // then by visits, descending
			slices.SortStableFunc(ranked, func(a, b int64) int { return cellN[[2]int64{id, b}] - cellN[[2]int64{id, a}] })
			return cellAt[[2]int64{id, ranked[top-1]}][map[bool]int{false: 0, true: 1}[strings.HasSuffix(name, "_lon")]]
		}
		return sum[k]
	}
}

// bentCustomers names the customers oracleWorld edits, one per branch of
// the bit contract it reaches.
type bentCustomers struct {
	absent int64 // no web, message, recharge or location rows
	zeros  int64 // web rows with zero page requests, successes, TCP attempts and emails
	failed int64 // emails sent, none succeeded; one web row's flux is NaN
	dup    int64 // billing and demographic rows duplicated, the copy edited
	order  int64 // 0 s calls, then 0.1, 0.2, 0.3 s calls appended at the table's end
}

// oracleWorld is a small simulated world bent to reach every branch of the
// bit contract: absent rows, present zero denominators, a zero numerator
// over a non-zero denominator, a NaN, duplicated snapshot rows whose last
// copy must win, and a sum whose bits change in reverse row order (the
// appended calls also split their customer's rows in two runs).
func oracleWorld(t *testing.T) (Tables, int, bentCustomers) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Customers, cfg.Months, cfg.Seed = 60, 3, 11
	months := synth.Simulate(cfg)
	tbl := monthTables(t, months) // several months: fresh concatenated copies
	ids := slices.Clone(months[1].Customers.MustCol("imsi").Ints)
	slices.Sort(ids)
	c := bentCustomers{absent: ids[0], zeros: ids[1], dup: ids[2], order: ids[3]}
	without := func(t *table.Table) *table.Table {
		imsi := t.MustCol("imsi").Ints
		return t.Filter(func(i int) bool { return imsi[i] != c.absent })
	}
	tbl.Web, tbl.Messages, tbl.Recharges, tbl.Locations = without(tbl.Web), without(tbl.Messages), without(tbl.Recharges), without(tbl.Locations)
	// The failed-email customer needs a web row inside every test window.
	webMonth, webDay, webIMSI := tbl.Web.MustCol("month").Ints, tbl.Web.MustCol("day").Ints, tbl.Web.MustCol("imsi").Ints
	nanRow := 0
	for webIMSI[nanRow] <= c.order || webMonth[nanRow] != 2 || webDay[nanRow] < 16 {
		nanRow++
	}
	c.failed = webIMSI[nanRow]
	tbl.Web.MustCol("flux").Floats[nanRow] = math.NaN()
	set := func(t *table.Table, id int64, col string, v float64) (rows int) {
		col64 := t.MustCol(col)
		for i, x := range t.MustCol("imsi").Ints {
			if x == id {
				if col64.Type == table.Int64 {
					col64.Ints[i] = int64(v)
				} else {
					col64.Floats[i] = v
				}
				rows++
			}
		}
		return rows
	}
	for _, col := range []string{"page_req", "page_succ", "browse_succ", "tcp_att", "tcp_ok", "email_cnt", "email_ok"} {
		set(tbl.Web, c.zeros, col, 0)
	}
	set(tbl.Web, c.failed, "email_cnt", 3)
	set(tbl.Web, c.failed, "email_ok", 0)
	for _, snap := range []struct {
		t   *table.Table
		col string
	}{{tbl.Billing, "balance"}, {tbl.Customers, "age"}} {
		var rows []int
		for i, id := range snap.t.MustCol("imsi").Ints {
			if id == c.dup {
				rows = append(rows, i)
			}
		}
		extra := snap.t.Take(rows)
		set(extra, c.dup, snap.col, 77)
		if err := snap.t.AppendTable(extra); err != nil {
			t.Fatal(err)
		}
	}
	set(tbl.Calls, c.order, "dur", 0)
	first := slices.Index(tbl.Calls.MustCol("imsi").Ints, c.order)
	extra := tbl.Calls.Take([]int{first, first, first})
	for col, v := range map[string]float64{"month": 2, "day": 20, "success": 1, "mo": 1, "svc": 0, "kind": synth.CallLocalInner} {
		set(extra, c.order, col, v)
	}
	copy(extra.MustCol("dur").Floats, []float64{0.1, 0.2, 0.3})
	if err := tbl.Calls.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	return tbl, cfg.DaysPerMonth, c
}

// TestBaseColumnsMatchNaiveReference pins every F1–F3 cell, Float64bits,
// to the row-by-row reference over a whole month, a two-month window and a
// mid-month window (Table 5's cadence shape), at one and several workers.
func TestBaseColumnsMatchNaiveReference(t *testing.T) {
	tbl, days, c := oracleWorld(t)
	for _, win := range []Window{
		MonthWindow(2, days),
		{FromAbs: AbsDay(2, 1, days), ToAbs: AbsDay(3, days, days)},
		{FromAbs: AbsDay(2, 16, days), ToAbs: AbsDay(3, 15, days)},
	} {
		universe, want := naiveBase(tbl, win, days)
		slices.Sort(universe)
		universe = slices.Compact(universe)
		for _, workers := range []int{1, 3} {
			f, err := BuildBaseFeatures(tbl, win, days, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(f.IDs(), universe) || f.NumColumns() != 104 {
				t.Fatalf("window %+v: %d rows x %d columns, want %d x 104", win, f.NumRows(), f.NumColumns(), len(universe))
			}
			bad := 0
			for j, name := range f.Names() {
				for r, id := range f.IDs() {
					got, w := f.x[r][j], want(name, id)
					if math.Float64bits(got) != math.Float64bits(w) && bad < 10 {
						bad++
						t.Errorf("window %+v workers %d: %s[%d] = %v (%#x), want %v (%#x)",
							win, workers, name, id, got, math.Float64bits(got), w, math.Float64bits(w))
					}
				}
			}
		}

		// The world reaches the branches it was bent for.
		a, b, d := 0.1, 0.2, 0.3
		for _, check := range []struct {
			what      string
			got, want float64
		}{
			{"web rows of the absent customer", want("ps_active_days", c.absent), 0},
			{"zero-denominator email rate", want("email_success_rate", c.zeros), 1},
			{"failed emails sent", min(want("email_cnt", c.failed), 1), 1},
			{"failed email rate", want("email_success_rate", c.failed), 0},
			{"NaN flux", b2f(math.IsNaN(want("ps_flux", c.failed))), 1},
			{"duplicated age", want("age", c.dup), 77},
			{"row-order voice_dur", want("voice_dur", c.order), (a + b) + d},
			{"reverse-order voice_dur differs", b2f((a+b)+d != (d+b)+a), 1},
		} {
			if check.got != check.want {
				t.Errorf("window %+v: %s = %v, want %v", win, check.what, check.got, check.want)
			}
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestOneCustomerBaseBuildAllocs bounds the allocations of the per-customer
// build an event post repeats for every customer it touches: F1–F3 folded
// over the customer's posting lists, with no row copied out.
func TestOneCustomerBaseBuildAllocs(t *testing.T) {
	months, cfg := simOnce(t)
	win := MonthWindow(2, cfg.DaysPerMonth)
	tbl := monthTables(t, months[1:2])
	m, err := NewMaintainer(tbl, win, cfg.DaysPerMonth)
	if err != nil {
		t.Fatal(err)
	}
	id := slices.Min(months[1].Customers.MustCol("imsi").Ints)
	if len(m.idx[synth.TableCalls][id]) == 0 || len(m.idx[synth.TableWeb][id]) == 0 {
		t.Fatal("probe customer has no calls or web rows")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.CustomerFrame(id, BaseGroups.Groups(), nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 120 {
		t.Errorf("one-customer base build: %.0f allocs, want <= 120", allocs)
	}
}
