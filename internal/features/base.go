package features

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"telcochurn/internal/parallel"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// Tables bundles the raw tables covering one observation window. Event
// tables (calls, messages, recharges, complaints, web, search, locations)
// may span several months; snapshot tables (billing, customers) are monthly.
type Tables struct {
	Calls      *table.Table
	Messages   *table.Table
	Recharges  *table.Table
	Billing    *table.Table
	Customers  *table.Table
	Complaints *table.Table
	Web        *table.Table
	Search     *table.Table
	Locations  *table.Table
}

// tableRef is one field of a Tables and its raw table name.
type tableRef struct {
	name string
	dst  **table.Table
}

// refs returns every field of t with its raw table name, in canonical
// order.
func (t *Tables) refs() []tableRef {
	return []tableRef{
		{synth.TableCalls, &t.Calls},
		{synth.TableMessages, &t.Messages},
		{synth.TableRecharges, &t.Recharges},
		{synth.TableBilling, &t.Billing},
		{synth.TableCustomers, &t.Customers},
		{synth.TableComplaints, &t.Complaints},
		{synth.TableWeb, &t.Web},
		{synth.TableSearch, &t.Search},
		{synth.TableLocations, &t.Locations},
	}
}

// Window is an inclusive range of absolute days. Absolute day 1 is day 1 of
// month 1; month m day d is (m-1)*daysPerMonth + d. A window shorter or
// shifted relative to month boundaries implements the Velocity experiment's
// sliding update (Table 5).
type Window struct {
	FromAbs, ToAbs int
}

// AbsDay converts (month, day) to an absolute day.
func AbsDay(month, day, daysPerMonth int) int {
	return (month-1)*daysPerMonth + day
}

// MonthWindow is the whole-month window for month m.
func MonthWindow(month, daysPerMonth int) Window {
	return Window{FromAbs: AbsDay(month, 1, daysPerMonth), ToAbs: AbsDay(month, daysPerMonth, daysPerMonth)}
}

// LastMonth returns the month containing the window's final day.
func (w Window) LastMonth(daysPerMonth int) int {
	return (w.ToAbs-1)/daysPerMonth + 1
}

// Months returns every month the window overlaps, ascending.
func (w Window) Months(daysPerMonth int) []int {
	first := (w.FromAbs-1)/daysPerMonth + 1
	last := w.LastMonth(daysPerMonth)
	months := make([]int, 0, last-first+1)
	for m := first; m <= last; m++ {
		months = append(months, m)
	}
	return months
}

// LoadTablesFrom reads every raw table overlapping the window through r (a
// raw warehouse, one shard of it, or a retry/maintained-view/fault-injection
// wrapper around either), one table at a time, failing on the first
// unavailable table. For concurrent reads and for assembly that survives
// missing feeds, see LoadTables.
func LoadTablesFrom(r TableReader, win Window, daysPerMonth int) (Tables, error) {
	t, _, err := LoadTables(r, win, daysPerMonth, true, 1)
	return t, err
}

// MonthReader is the TableReader over in-memory simulator output, keyed by
// month. A single month shares the simulator's table; several months are
// joined into a fresh table by table.Concat, so the simulator output is
// never mutated. Reads only, so it is safe for concurrent use.
type MonthReader map[int]*synth.MonthData

// ReadMonths implements TableReader.
func (r MonthReader) ReadMonths(name string, months []int) (*table.Table, error) {
	parts := make([]*table.Table, len(months))
	for i, m := range months {
		md, ok := r[m]
		if !ok {
			return nil, fmt.Errorf("features: %s month %d not in memory", name, m)
		}
		if parts[i] = md.Tables()[name]; parts[i] == nil {
			return nil, fmt.Errorf("features: unknown table %q", name)
		}
	}
	return table.Concat(parts)
}

// inWindow returns a row predicate filtering an event table (with month and
// day columns) to the window.
func inWindow(t *table.Table, win Window, daysPerMonth int) func(int) bool {
	months := t.MustCol("month").Ints
	days := t.MustCol("day").Ints
	return func(i int) bool {
		abs := AbsDay(int(months[i]), int(days[i]), daysPerMonth)
		return abs >= win.FromAbs && abs <= win.ToAbs
	}
}

// SnapshotMonth returns the month whose end-of-month snapshot tables
// (billing, demographics) a window may use: the month containing ToAbs if
// the window reaches that month's last day, otherwise the month before.
// Monthly snapshots are produced by BSS at month end (Section 5.4: "some
// big tables ... are summarized automatically by BSS monthly"), so a window
// ending mid-month must not see the in-progress month's summary.
func (w Window) SnapshotMonth(daysPerMonth int) int {
	m := w.LastMonth(daysPerMonth)
	if w.ToAbs == AbsDay(m, daysPerMonth, daysPerMonth) {
		return m
	}
	return m - 1
}

// snapshotMonth filters a monthly snapshot table to the window's snapshot
// month.
func snapshotMonth(t *table.Table, win Window, daysPerMonth int) *table.Table {
	m := int64(win.SnapshotMonth(daysPerMonth))
	months := t.MustCol("month").Ints
	return t.Filter(func(i int) bool { return months[i] == m })
}

// The F1–F3 build scans each raw table once. Every in-window row resolves
// its customer's frame slot, computes its filter bits once, reads its value
// columns once, and adds into each tally (a per-customer accumulator) whose
// filter bits it carries; every output column is then a function of one
// customer's tallies. basePlan fixes the column layout and, per table, the
// tallies and outputs that fill it.
//
// A tally adds the customer's kept rows in table row order from +0.0, each
// Int64 value converted and then added, so every sum, mean and ratio is
// Float64bits-equal to a row-at-a-time aggregation of the same rows (the
// fold-order contract incremental.go relies on). "Present" means at least
// one kept row, never a non-zero value.

// Window-half filter bits, set on every table's rows. The bits below them
// are per table: a bit means what its table's flag function makes it mean.
const (
	firstHalf  uint32 = 1 << 30 // absolute day at or before the window midpoint
	secondHalf uint32 = 1 << 31 // after it
)

// Call filter bits.
const (
	cMO    uint32 = 1 << iota // mobile-originated (caller)
	cMT                       // mobile-terminated
	cOK                       // alerting reached
	cInner                    // local, peer on the same operator
	cOuter                    // local, peer on another operator
	cLocal                    // cInner or cOuter
	cLD
	cRoam
	cCM // peer on China Mobile
	cCT // peer on China Telecom
	cBusy
	cFest
	cFree
	cGift
	cSvc    // svc = 1: call to the 10010 service line
	cNotSvc // svc = 0
	cManual
	cDropped
)

// Message filter bits.
const (
	mMO uint32 = 1 << iota
	mMT
	mSMS
	mMMS
	mP2P
	mInfo
	mBilling
	mService
	mSelf  // peer on the same operator
	mOther // peer on another operator
	mCM
	mCT
	mRoamInt
	mGift
)

// is returns b when v == want.
func is(v, want int64, b uint32) uint32 {
	if v == want {
		return b
	}
	return 0
}

// callFlags returns the call filter bits of a row, reading each filter
// field once.
func callFlags(t *table.Table) func(row int) uint32 {
	kind, mo, peerOp, svc := t.MustCol("kind").Ints, t.MustCol("mo").Ints, t.MustCol("peer_op").Ints, t.MustCol("svc").Ints
	success, dropped, manual := t.MustCol("success").Ints, t.MustCol("dropped").Ints, t.MustCol("manual").Ints
	busy, fest, free, gift := t.MustCol("busy").Ints, t.MustCol("fest").Ints, t.MustCol("free").Ints, t.MustCol("gift").Ints
	return func(i int) uint32 {
		k, m, op, sv := kind[i], mo[i], peerOp[i], svc[i]
		return is(m, 1, cMO) | is(m, 0, cMT) | is(success[i], 1, cOK) |
			is(k, synth.CallLocalInner, cInner|cLocal) | is(k, synth.CallLocalOuter, cOuter|cLocal) |
			is(k, synth.CallLongDist, cLD) | is(k, synth.CallRoam, cRoam) |
			is(op, synth.OpChinaMobile, cCM) | is(op, synth.OpChinaTelecom, cCT) |
			is(busy[i], 1, cBusy) | is(fest[i], 1, cFest) | is(free[i], 1, cFree) | is(gift[i], 1, cGift) |
			is(sv, 1, cSvc) | is(sv, 0, cNotSvc) | is(manual[i], 1, cManual) | is(dropped[i], 1, cDropped)
	}
}

// messageFlags returns the message filter bits of a row, reading each
// filter field once.
func messageFlags(t *table.Table) func(row int) uint32 {
	kind, mo, mms := t.MustCol("kind").Ints, t.MustCol("mo").Ints, t.MustCol("mms").Ints
	peerOp, roamInt, gift := t.MustCol("peer_op").Ints, t.MustCol("roam_int").Ints, t.MustCol("gift").Ints
	return func(i int) uint32 {
		k, m, mm, op := kind[i], mo[i], mms[i], peerOp[i]
		f := is(m, 1, mMO) | is(m, 0, mMT) | is(mm, 0, mSMS) | is(mm, 1, mMMS) |
			is(k, synth.MsgP2P, mP2P) | is(k, synth.MsgInfo, mInfo) | is(k, synth.MsgBilling, mBilling) |
			is(k, synth.MsgService, mService) | is(op, synth.OpChinaMobile, mCM) | is(op, synth.OpChinaTelecom, mCT) |
			is(roamInt[i], 1, mRoamInt) | is(gift[i], 1, mGift)
		if op == synth.OpSelf {
			return f | mSelf
		}
		return f | mOther
	}
}

// tally is one per-customer accumulator of a table scan: every kept row
// carrying all of need adds its value of source column src (-1: adds 1).
type tally struct {
	need uint32
	src  int
}

// output is one frame column a scan fills from a customer's tallies.
type output struct {
	col int
	val func(a []float64) float64
}

// scan plans one raw table's single pass.
type scan struct {
	flags   func(t *table.Table) func(row int) uint32 // nil: only the half bits
	values  []string                                  // value columns, by tally src
	tallies []tally
	outs    []output
	// distinct counts the distinct values of distinctCol over the rows
	// carrying distinctNeed into frame column distinctOut ("" = none).
	distinctCol  string
	distinctNeed uint32
	distinctOut  int
	lastDay      bool // track each customer's last in-window absolute day
}

// tally returns the index of the (need, src) tally, adding it if new; src
// "" counts rows.
func (s *scan) tally(need uint32, src string) int {
	t := tally{need: need, src: -1}
	if src != "" {
		if t.src = slices.Index(s.values, src); t.src < 0 {
			s.values = append(s.values, src)
			t.src = len(s.values) - 1
		}
	}
	if j := slices.Index(s.tallies, t); j >= 0 {
		return j
	}
	s.tallies = append(s.tallies, t)
	return len(s.tallies) - 1
}

// snapCol copies a monthly snapshot column into a frame column.
type snapCol struct {
	src string
	col int
}

// plan is the F1–F3 column layout and how each table fills it.
type plan struct {
	names  []string
	groups []Group

	calls, messages, recharges, complaints, web scan
	billing, demographics                       []snapCol

	lastActive, lastRecharge int // frame columns of the cross-table last-day features
	locTop                   int // first of the locTopN lat/lon pairs, then loc_distinct_cells
}

// locTopN is how many top stay locations the F3 group carries: 4 lat/lon
// pairs plus the distinct-cell count make 9 columns (the paper's 10
// location features minus the slot page_size_mean takes, keeping F3 at 25).
const locTopN = 4

var basePlan = newBasePlan()

// col appends a column to the layout and returns its index.
func (p *plan) col(g Group, name string) int {
	p.names = append(p.names, name)
	p.groups = append(p.groups, g)
	return len(p.names) - 1
}

func (p *plan) out(s *scan, g Group, name string, val func(a []float64) float64) {
	s.outs = append(s.outs, output{col: p.col(g, name), val: val})
}

// sum is the kept rows' src values added in row order; src "" counts rows.
func (p *plan) sum(s *scan, g Group, name string, need uint32, src string) {
	t := s.tally(need, src)
	p.out(s, g, name, func(a []float64) float64 { return a[t] })
}

// minutes is a seconds sum in minutes.
func (p *plan) minutes(s *scan, g Group, name string, need uint32, src string) {
	t := s.tally(need, src)
	p.out(s, g, name, func(a []float64) float64 { return a[t] * (1.0 / 60) })
}

// mean is the sum over the kept rows' count, 0 without kept rows.
func (p *plan) mean(s *scan, g Group, name string, need uint32, src string) {
	sum, n := s.tally(need, src), s.tally(need, "")
	p.out(s, g, name, func(a []float64) float64 {
		if a[n] == 0 {
			return 0
		}
		return a[sum] / a[n]
	})
}

// agg names a tally: a filter and a value column ("" = a row count).
type agg struct {
	need uint32
	src  string
}

// ratio is num / den, def when den has no kept rows or is zero (every ratio
// column uses one default for both).
func (p *plan) ratio(s *scan, g Group, name string, num, den agg, def float64) {
	nt, dt, present := s.tally(num.need, num.src), s.tally(den.need, den.src), s.tally(den.need, "")
	p.out(s, g, name, func(a []float64) float64 {
		if a[present] == 0 || a[dt] == 0 {
			return def
		}
		return a[nt] / a[dt]
	})
}

// decline compares the window's two halves: second / (first + k) when the
// first half has kept rows, second / k when only the second has, else 0.
func (p *plan) decline(s *scan, g Group, name string, need uint32, src string, k float64) {
	fh, fn := s.tally(need|firstHalf, src), s.tally(need|firstHalf, "")
	sh, sn := s.tally(need|secondHalf, src), s.tally(need|secondHalf, "")
	p.out(s, g, name, func(a []float64) float64 {
		switch {
		case a[fn] > 0:
			return a[sh] / (a[fh] + k)
		case a[sn] > 0:
			return a[sh] / k
		}
		return 0
	})
}

// distinct counts the distinct values of col over the rows carrying need.
func (p *plan) distinct(s *scan, g Group, name string, need uint32, col string) {
	s.distinctCol, s.distinctNeed, s.distinctOut = col, need, p.col(g, name)
}

// named is one column of a table-driven list: a name and a row filter.
type named struct {
	name string
	need uint32
}

func newBasePlan() *plan {
	p := &plan{}
	c, m, w := &p.calls, &p.messages, &p.web
	c.flags, m.flags = callFlags, messageFlags
	c.lastDay, w.lastDay, p.recharges.lastDay = true, true, true

	// Call durations (seconds).
	for _, n := range []named{
		{"localbase_inner_call_dur", cMO | cOK | cInner | cNotSvc},
		{"localbase_outer_call_dur", cMO | cOK | cOuter},
		{"ld_call_dur", cMO | cOK | cLD},
		{"roam_call_dur", cMO | cOK | cRoam},
		{"localbase_called_dur", cMT | cOK | cLocal},
		{"ld_called_dur", cMT | cOK | cLD},
		{"roam_called_dur", cMT | cOK | cRoam},
		{"cm_dur", cOK | cCM},
		{"ct_dur", cOK | cCT},
		{"busy_call_dur", cMO | cOK | cBusy},
		{"fest_call_dur", cMO | cOK | cFest},
		{"free_call_dur", cOK | cFree},
		{"gift_voice_call_dur", cOK | cGift},
		{"voice_dur", cOK},
		{"caller_dur", cMO | cOK},
	} {
		p.sum(c, F1Baseline, n.name, n.need, "dur")
	}
	// Call counts.
	for _, n := range []named{
		{"all_call_cnt", 0},
		{"voice_cnt", cOK},
		{"local_base_call_cnt", cMO | cLocal | cNotSvc},
		{"ld_call_cnt", cMO | cLD},
		{"roam_call_cnt", cMO | cRoam},
		{"caller_cnt", cMO},
		{"call_10010_cnt", cSvc},
		{"call_10010_manual_cnt", cManual},
	} {
		p.sum(c, F1Baseline, n.name, n.need, "")
	}
	// Call minutes (duration/60 views the BI system reports separately).
	for _, n := range []named{
		{"local_call_minutes", cMO | cOK | cLocal},
		{"toll_call_minutes", cMO | cOK | cLD},
		{"roam_call_minutes", cMO | cOK | cRoam},
		{"voice_call_minutes", cOK},
	} {
		p.minutes(c, F1Baseline, n.name, n.need, "dur")
	}
	// Messages.
	p2pSMSMO := mP2P | mMO | mSMS
	p2pMMSMO := mP2P | mMO | mMMS
	for _, n := range []named{
		{"sms_p2p_inner_mo_cnt", p2pSMSMO | mSelf},
		{"sms_p2p_other_mo_cnt", p2pSMSMO | mOther},
		{"sms_p2p_cm_mo_cnt", p2pSMSMO | mCM},
		{"sms_p2p_ct_mo_cnt", p2pSMSMO | mCT},
		{"sms_info_mo_cnt", mInfo},
		{"sms_p2p_roam_int_mo_cnt", p2pSMSMO | mRoamInt},
		{"sms_bill_cnt", mBilling},
		{"sms_p2p_mt_cnt", mP2P | mMT | mSMS},
		{"serve_sms_count", mService},
		{"mms_cnt", mMMS},
		{"mms_p2p_inner_mo_cnt", p2pMMSMO | mSelf},
		{"mms_p2p_other_mo_cnt", p2pMMSMO | mOther},
		{"mms_p2p_mt_cnt", mP2P | mMT | mMMS},
		{"p2p_sms_mo_cnt", p2pSMSMO},
		{"gift_sms_mo_cnt", mMO | mGift},
	} {
		p.sum(m, F1Baseline, n.name, n.need, "")
	}
	p.distinct(m, F1Baseline, "distinct_serve_count", mService, "peer")

	// Billing snapshot (the window's snapshot month).
	for _, b := range [][2]string{
		{"balance", "balance"}, {"total_charge", "total_charge"},
		{"recharge_value", "recharge_value"}, {"balance_rate", "balance_rate"},
		{"gprs_flux", "gprs_flux"}, {"gprs_charge", "gprs_charge"},
		{"sms_charge", "p2p_sms_mo_charge"}, {"gift_flux", "gift_flux_value"},
	} {
		p.billing = append(p.billing, snapCol{src: b[0], col: p.col(F1Baseline, b[1])})
	}
	p.sum(&p.recharges, F1Baseline, "recharge_cnt", 0, "")
	// Demographics (the window's snapshot month).
	for _, name := range []string{
		"age", "gender", "pspt_type", "is_shanghai", "town_id", "sale_id",
		"product_id", "product_price", "product_knd", "credit_value", "innet_dura",
	} {
		p.demographics = append(p.demographics, snapCol{src: name, col: p.col(F1Baseline, name)})
	}

	// Complaints and activity spread. active_call_days counts distinct raw
	// day values, so a window spanning two months counts day 5 once.
	p.sum(&p.complaints, F1Baseline, "complaint_cnt", 0, "")
	p.distinct(c, F1Baseline, "active_call_days", 0, "day")
	p.sum(w, F1Baseline, "gprs_all_flux", 0, "flux")

	// Within-window usage-trend features: the classic "declining usage"
	// baseline churn signals every BI churn model carries. Halves are split
	// at the window midpoint in absolute days.
	p.decline(c, F1Baseline, "call_dur_decline", cOK, "dur", 60)
	p.decline(w, F1Baseline, "flux_decline", 0, "flux", 5)
	// Last day with any voice or data activity, and last recharge day,
	// relative to window start (0 = none in window).
	p.lastActive = p.col(F1Baseline, "last_active_day")
	p.lastRecharge = p.col(F1Baseline, "last_recharge_day")

	// F2: call-quality KPIs, excluding synthetic service-line rows.
	placed, answered := cNotSvc, cNotSvc|cOK
	p.ratio(c, F2CS, "call_success_rate", agg{answered, ""}, agg{placed, ""}, 1)
	p.mean(c, F2CS, "e2e_conn_delay", answered, "conn_delay")
	p.ratio(c, F2CS, "call_drop_rate", agg{placed | cDropped, ""}, agg{answered, ""}, 0)
	p.mean(c, F2CS, "uplink_mos", answered, "mos_ul")
	p.mean(c, F2CS, "voice_quality", answered, "mos_dl")
	p.mean(c, F2CS, "ip_mos", answered, "mos_ip")
	p.sum(c, F2CS, "oneway_audio_cnt", placed, "oneway")
	p.sum(c, F2CS, "noise_cnt", placed, "noise")
	p.sum(c, F2CS, "echo_cnt", placed, "echo")

	// F3: PS KPIs over every in-window xDR row, then stay locations.
	p.ratio(w, F3PS, "page_response_success_rate", agg{0, "page_succ"}, agg{0, "page_req"}, 1)
	p.mean(w, F3PS, "page_response_delay", 0, "resp_delay")
	p.ratio(w, F3PS, "page_browsing_success_rate", agg{0, "browse_succ"}, agg{0, "page_succ"}, 1)
	p.mean(w, F3PS, "page_browsing_delay", 0, "browse_delay")
	p.mean(w, F3PS, "page_download_throughput", 0, "dl_tp")
	p.mean(w, F3PS, "upload_throughput", 0, "ul_tp")
	p.sum(w, F3PS, "ps_flux", 0, "flux")
	p.ratio(w, F3PS, "tcp_conn_rate", agg{0, "tcp_ok"}, agg{0, "tcp_att"}, 1)
	p.mean(w, F3PS, "tcp_rtt", 0, "tcp_rtt")
	p.sum(w, F3PS, "streaming_filesize", 0, "stream_size")
	p.sum(w, F3PS, "streaming_dw_packets", 0, "stream_pkts")
	p.sum(w, F3PS, "email_cnt", 0, "email_cnt")
	p.ratio(w, F3PS, "email_success_rate", agg{0, "email_ok"}, agg{0, "email_cnt"}, 1)
	p.distinct(w, F3PS, "ps_active_days", 0, "day")
	p.sum(w, F3PS, "page_cnt", 0, "page_req")
	p.mean(w, F3PS, "page_size_mean", 0, "page_size")
	p.locTop = p.col(F3PS, "loc_top1_lat")
	p.col(F3PS, "loc_top1_lon")
	for k := 2; k <= locTopN; k++ {
		p.col(F3PS, fmt.Sprintf("loc_top%d_lat", k))
		p.col(F3PS, fmt.Sprintf("loc_top%d_lon", k))
	}
	p.col(F3PS, "loc_distinct_cells")
	return p
}

// BuildBaseFeatures builds the F1 (baseline BSS), F2 (CS KPI/KQI) and F3 (PS
// KPI/KQI + location) columns of the wide table for the given window: one
// pass per raw table, the passes spread across `workers` goroutines
// (0 = GOMAXPROCS). The customer universe is the window's snapshot-month
// demographic rows. Every column is written by one pass, so the frame is
// bit-identical for any worker count.
func BuildBaseFeatures(tbl Tables, win Window, daysPerMonth, workers int) (*Frame, error) {
	return buildBase(tbl, nil, win, daysPerMonth, workers)
}

// rowSet is the rows of one table a build visits, in visiting order: every
// row when all is set, else the listed ones.
type rowSet struct {
	all  bool
	list []int
}

// count returns how many rows of t the set visits.
func (r rowSet) count(t *table.Table) int {
	if r.all {
		return t.NumRows()
	}
	return len(r.list)
}

// row returns the table row the set visits k-th.
func (r rowSet) row(k int) int {
	if r.all {
		return k
	}
	return r.list[k]
}

// selection picks, by raw table name, the rows a build visits. A nil
// selection visits every row of every table; otherwise each table's listed
// rows, and none of a table it does not name. Maintainer.CustomerFrame
// passes one customer's posting lists, so the build folds that customer's
// rows in place, in row order, without copying them out.
type selection map[string][]int

// of returns the rows of the named table the selection visits.
func (s selection) of(name string) rowSet {
	if s == nil {
		return rowSet{all: true}
	}
	return rowSet{list: s[name]}
}

// buildBase is BuildBaseFeatures over the rows sel selects.
func buildBase(tbl Tables, sel selection, win Window, daysPerMonth, workers int) (*Frame, error) {
	snap := int64(win.SnapshotMonth(daysPerMonth))
	var ids []int64
	cust := sel.of(synth.TableCustomers)
	months, imsi := tbl.Customers.MustCol("month").Ints, tbl.Customers.MustCol("imsi").Ints
	for k, n := 0, cust.count(tbl.Customers); k < n; k++ {
		if i := cust.row(k); months[i] == snap {
			ids = append(ids, imsi[i])
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("features: no customer snapshot for month %d", win.LastMonth(daysPerMonth))
	}
	p := basePlan
	f := NewFrame(ids)
	f.names, f.group = slices.Clone(p.names), slices.Clone(p.groups)
	width := len(p.names)
	slab := make([]float64, len(f.ids)*width)
	for r := range f.x {
		f.x[r] = slab[r*width : (r+1)*width : (r+1)*width]
	}

	b := baseBuild{f: f, win: win, days: daysPerMonth, mid: (win.FromAbs + win.ToAbs) / 2}
	var lastCall, lastWeb, lastRecharge []int
	tasks := []func(){
		func() { lastCall = b.run(&p.calls, tbl.Calls, sel.of(synth.TableCalls)) },
		func() { lastWeb = b.run(&p.web, tbl.Web, sel.of(synth.TableWeb)) },
		func() { b.run(&p.messages, tbl.Messages, sel.of(synth.TableMessages)) },
		func() { b.locations(tbl.Locations, sel.of(synth.TableLocations), p.locTop) },
		func() { lastRecharge = b.run(&p.recharges, tbl.Recharges, sel.of(synth.TableRecharges)) },
		func() { b.run(&p.complaints, tbl.Complaints, sel.of(synth.TableComplaints)) },
		func() { b.snapshot(tbl.Billing, sel.of(synth.TableBilling), snap, p.billing) },
		func() { b.snapshot(tbl.Customers, cust, snap, p.demographics) },
	}
	parallel.ForGrain(workers, len(tasks), 1, func(i int) { tasks[i]() })

	from := float64(win.FromAbs)
	for r, row := range f.x {
		active := 0.0
		if d := lastCall[r]; d > 0 {
			active = float64(d) - from + 1
		}
		if d := lastWeb[r]; d > 0 {
			active = max(active, float64(d)-from+1)
		}
		row[p.lastActive] = active
		if d := lastRecharge[r]; d > 0 {
			row[p.lastRecharge] = float64(d) - from + 1
		}
	}
	return f, nil
}

// baseBuild is one BuildBaseFeatures call: the frame its passes fill and
// the window they keep rows of.
type baseBuild struct {
	f         *Frame
	win       Window
	days, mid int
}

// rows calls fn for every in-window row of t in rs whose customer has a
// frame slot, in rs order. Consecutive rows of one customer share one
// lookup.
func (b *baseBuild) rows(t *table.Table, rs rowSet, fn func(i, slot, abs int)) {
	months, days, imsi := t.MustCol("month").Ints, t.MustCol("day").Ints, t.MustCol("imsi").Ints
	slot, prev, cached := -1, int64(0), false
	for k, n := 0, rs.count(t); k < n; k++ {
		i := rs.row(k)
		id := imsi[i]
		abs := AbsDay(int(months[i]), int(days[i]), b.days)
		if abs < b.win.FromAbs || abs > b.win.ToAbs {
			continue
		}
		if !cached || id != prev {
			s, ok := b.f.index[id]
			if !ok {
				s = -1
			}
			slot, prev, cached = s, id, true
		}
		if slot >= 0 {
			fn(i, slot, abs)
		}
	}
}

// run makes s's single pass over the rows rs of t and writes its columns
// into the frame. It returns each customer's last in-window absolute day
// (0 = none) when s tracks it.
func (b *baseBuild) run(s *scan, t *table.Table, rs rowSet) (last []int) {
	n, nt := len(b.f.ids), len(s.tallies)
	var flags func(int) uint32
	if s.flags != nil {
		flags = s.flags(t)
	}
	cols := make([]*table.Column, len(s.values))
	for k, name := range s.values {
		cols[k] = t.MustCol(name)
	}
	vals := make([]float64, len(cols))
	acc := make([]float64, n*nt)
	var dist *distinctCounter
	var dcol []int64
	if s.distinctCol != "" {
		dist, dcol = &distinctCounter{small: make([]uint64, n)}, t.MustCol(s.distinctCol).Ints
	}
	if s.lastDay {
		last = make([]int, n)
	}
	b.rows(t, rs, func(i, slot, abs int) {
		f := secondHalf
		if abs <= b.mid {
			f = firstHalf
		}
		if flags != nil {
			f |= flags(i)
		}
		for k, c := range cols {
			vals[k] = c.Float(i)
		}
		a := acc[slot*nt : slot*nt+nt]
		for j, tl := range s.tallies {
			if f&tl.need != tl.need {
				continue
			}
			if tl.src < 0 {
				a[j]++
			} else {
				a[j] += vals[tl.src]
			}
		}
		if dist != nil && f&s.distinctNeed == s.distinctNeed {
			dist.add(slot, dcol[i])
		}
		if last != nil && abs > last[slot] {
			last[slot] = abs
		}
	})
	for r, row := range b.f.x {
		a := acc[r*nt : r*nt+nt]
		for _, o := range s.outs {
			row[o.col] = o.val(a)
		}
	}
	if dist != nil {
		for r, v := range dist.counts() {
			b.f.x[r][s.distinctOut] = v
		}
	}
	return last
}

// snapshot copies the columns of a monthly snapshot table's rows rs for
// the given month; a customer with several rows keeps the last.
func (b *baseBuild) snapshot(t *table.Table, rs rowSet, month int64, cols []snapCol) {
	src := make([]*table.Column, len(cols))
	for k, c := range cols {
		src[k] = t.MustCol(c.src)
	}
	months, imsi := t.MustCol("month").Ints, t.MustCol("imsi").Ints
	for k, n := 0, rs.count(t); k < n; k++ {
		i := rs.row(k)
		slot, ok := b.f.index[imsi[i]]
		if !ok || months[i] != month {
			continue
		}
		for k, c := range cols {
			b.f.x[slot][c.col] = src[k].Float(i)
		}
	}
}

// locations fills the stay-location columns from the MR fixes rs of loc:
// each customer's in-window cells ranked by visit count (descending, then
// cell id), the first-seen lat/lon of the top locTopN, and the number of
// distinct cells.
func (b *baseBuild) locations(loc *table.Table, rs rowSet, first int) {
	cells := loc.MustCol("cell").Ints
	lats, lons := loc.MustCol("lat").Floats, loc.MustCol("lon").Floats
	// A customer's cells chain through next from head[slot]-1, in
	// first-seen order; a customer visits few cells, so a walk beats a map.
	type cellStat struct {
		cell     int64
		count    int
		lat, lon float64
		next     int
	}
	head := make([]int, len(b.f.ids))
	var stats []cellStat
	b.rows(loc, rs, func(i, slot, _ int) {
		j, prev := head[slot]-1, -1
		for j >= 0 && stats[j].cell != cells[i] {
			prev, j = j, stats[j].next
		}
		if j < 0 {
			j = len(stats)
			stats = append(stats, cellStat{cell: cells[i], lat: lats[i], lon: lons[i], next: -1})
			if prev < 0 {
				head[slot] = j + 1
			} else {
				stats[prev].next = j
			}
		}
		stats[j].count++
	})
	var ranked []cellStat
	for slot, h := range head {
		ranked = ranked[:0]
		for j := h - 1; j >= 0; j = stats[j].next {
			ranked = append(ranked, stats[j])
		}
		if len(ranked) == 0 {
			continue
		}
		slices.SortFunc(ranked, func(x, y cellStat) int {
			return cmp.Or(cmp.Compare(y.count, x.count), cmp.Compare(x.cell, y.cell))
		})
		row := b.f.x[slot]
		for k := 0; k < locTopN && k < len(ranked); k++ {
			row[first+2*k], row[first+2*k+1] = ranked[k].lat, ranked[k].lon
		}
		row[first+2*locTopN] = float64(len(ranked))
	}
}

// distinctCounter counts distinct Int64 values per frame slot: values in
// [0, 64) — every raw day — as bits of a per-slot mask, any other value as
// a (slot, value) set entry.
type distinctCounter struct {
	small []uint64
	big   map[[2]int64]bool
}

func (d *distinctCounter) add(slot int, v int64) {
	if uint64(v) < 64 {
		d.small[slot] |= 1 << uint64(v)
		return
	}
	if d.big == nil {
		d.big = map[[2]int64]bool{}
	}
	d.big[[2]int64{int64(slot), v}] = true
}

// counts returns every slot's number of distinct values.
func (d *distinctCounter) counts() []float64 {
	out := make([]float64, len(d.small))
	for s, m := range d.small {
		out[s] = float64(bits.OnesCount64(m))
	}
	for k := range d.big {
		out[k[0]]++
	}
	return out
}
