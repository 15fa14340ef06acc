package features

import (
	"fmt"
	"sort"

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
// wrapper around either), failing on the first unavailable table. For
// assembly that survives missing feeds, see LoadTables.
func LoadTablesFrom(r TableReader, win Window, daysPerMonth int) (Tables, error) {
	t, _, err := LoadTables(r, win, daysPerMonth, true)
	return t, err
}

// MonthReader is the TableReader over in-memory simulator output, keyed by
// month. A single month shares the simulator's table; several months are
// concatenated into a fresh table, so the simulator output is never
// mutated.
type MonthReader map[int]*synth.MonthData

// ReadMonths implements TableReader.
func (r MonthReader) ReadMonths(name string, months []int) (*table.Table, error) {
	var out *table.Table
	for _, m := range months {
		md, ok := r[m]
		if !ok {
			return nil, fmt.Errorf("features: %s month %d not in memory", name, m)
		}
		t := md.Tables()[name]
		if t == nil {
			return nil, fmt.Errorf("features: unknown table %q", name)
		}
		if len(months) == 1 {
			return t, nil
		}
		if out == nil {
			out = table.NewTable(t.Schema)
		}
		if err := out.AppendTable(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FromMonthData builds Tables directly from in-memory simulator output
// (concatenating the given months), bypassing the warehouse.
func FromMonthData(months []*synth.MonthData) (Tables, error) {
	r := make(MonthReader, len(months))
	idx := make([]int, len(months))
	for i, md := range months {
		r[md.Month], idx[i] = md, md.Month
	}
	t, _, err := loadTables(r, idx, true)
	return t, err
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

// colMap converts a (key, value) pair of columns into a map.
func colMap(t *table.Table, valueCol string) map[int64]float64 {
	keys := t.MustCol("imsi").Ints
	col := t.MustCol(valueCol)
	out := make(map[int64]float64, len(keys))
	for i, k := range keys {
		out[k] = col.Float(i)
	}
	return out
}

// sumBy sums valueCol per customer over the rows passing pred, via the
// engine's fused filter+group-by (the paper's Spark SQL aggregation queries
// with predicate pushdown): no filtered copy of t is materialized.
func sumBy(t *table.Table, pred func(int) bool, valueCol string) map[int64]float64 {
	g, err := table.GroupByWhere(t, "imsi", pred, table.Agg{Col: valueCol, Func: table.Sum, As: "v"})
	if err != nil {
		panic(fmt.Sprintf("features: sumBy(%s): %v", valueCol, err))
	}
	return colMap(g, "v")
}

func countBy(t *table.Table, pred func(int) bool) map[int64]float64 {
	g, err := table.GroupByWhere(t, "imsi", pred, table.Agg{Func: table.Count, As: "v"})
	if err != nil {
		panic(fmt.Sprintf("features: countBy: %v", err))
	}
	return colMap(g, "v")
}

func meanBy(t *table.Table, pred func(int) bool, valueCol string) map[int64]float64 {
	g, err := table.GroupByWhere(t, "imsi", pred, table.Agg{Col: valueCol, Func: table.Mean, As: "v"})
	if err != nil {
		panic(fmt.Sprintf("features: meanBy(%s): %v", valueCol, err))
	}
	return colMap(g, "v")
}

func distinctBy(t *table.Table, pred func(int) bool, col string) map[int64]float64 {
	g, err := table.GroupByWhere(t, "imsi", pred, table.Agg{Col: col, Func: table.CountDistinct, As: "v"})
	if err != nil {
		panic(fmt.Sprintf("features: distinctBy(%s): %v", col, err))
	}
	return colMap(g, "v")
}

// ratio computes num[id]/den[id] per customer present in den, with def when
// the denominator is missing or zero.
func ratio(num, den map[int64]float64, def float64) map[int64]float64 {
	out := make(map[int64]float64, len(den))
	for id, d := range den {
		if d == 0 {
			out[id] = def
			continue
		}
		out[id] = num[id] / d
	}
	return out
}

func scale(m map[int64]float64, k float64) map[int64]float64 {
	out := make(map[int64]float64, len(m))
	for id, v := range m {
		out[id] = v * k
	}
	return out
}

// column is one computed wide-table column awaiting placement in a frame.
type column struct {
	group  Group
	name   string
	values map[int64]float64
	def    float64
}

// colJob computes one or more columns; jobs share no mutable state, so they
// are the unit of parallelism for the wide-table build (the role of the
// paper's per-aggregation Spark SQL queries).
type colJob func() []column

// oneCol wraps a single-column computation as a job.
func oneCol(g Group, name string, def float64, compute func() map[int64]float64) colJob {
	return func() []column {
		return []column{{group: g, name: name, values: compute(), def: def}}
	}
}

// runJobs evaluates the jobs across workers and appends every resulting
// column to the frame in job order. Each job turns its column maps into
// row-aligned values on its own worker, so the maps die with the job rather
// than all living until the merge, which then sizes every row once. Column
// layout and values are identical for any worker count — parallelism only
// reorders the compute, never the merge.
func runJobs(f *Frame, workers int, jobs []colJob) {
	type denseColumn struct {
		group  Group
		name   string
		values []float64
	}
	results := make([][]denseColumn, len(jobs))
	parallel.ForGrain(workers, len(jobs), 1, func(i int) {
		cols := jobs[i]()
		out := make([]denseColumn, len(cols))
		for c, col := range cols {
			vals := make([]float64, len(f.ids))
			for r, id := range f.ids {
				v, ok := col.values[id]
				if !ok {
					v = col.def
				}
				vals[r] = v
			}
			out[c] = denseColumn{group: col.group, name: col.name, values: vals}
		}
		results[i] = out
	})
	added := 0
	for _, cols := range results {
		added += len(cols)
		for _, c := range cols {
			f.names = append(f.names, c.name)
			f.group = append(f.group, c.group)
		}
	}
	for r, row := range f.x {
		row = append(make([]float64, 0, len(row)+added), row...)
		for _, cols := range results {
			for _, c := range cols {
				row = append(row, c.values[r])
			}
		}
		f.x[r] = row
	}
}

// BuildBaseFeatures builds the F1 (baseline BSS), F2 (CS KPI/KQI) and F3 (PS
// KPI/KQI + location) columns of the wide table for the given window, fanning
// the independent per-column aggregations across `workers` goroutines
// (0 = GOMAXPROCS). The customer universe is the window's last-month
// demographic snapshot. The frame is bit-identical for any worker count.
func BuildBaseFeatures(tbl Tables, win Window, daysPerMonth, workers int) (*Frame, error) {
	cust := snapshotMonth(tbl.Customers, win, daysPerMonth)
	if cust.NumRows() == 0 {
		return nil, fmt.Errorf("features: no customer snapshot for month %d", win.LastMonth(daysPerMonth))
	}
	frame := NewFrame(cust.MustCol("imsi").Ints)
	jobs := f1Jobs(tbl, cust, win, daysPerMonth)
	jobs = append(jobs, f2Jobs(tbl, win, daysPerMonth)...)
	jobs = append(jobs, f3Jobs(tbl, win, daysPerMonth)...)
	runJobs(frame, workers, jobs)
	return frame, nil
}

func f1Jobs(tbl Tables, cust *table.Table, win Window, daysPerMonth int) []colJob {
	calls := tbl.Calls
	inWin := inWindow(calls, win, daysPerMonth)
	kind := calls.MustCol("kind").Ints
	mo := calls.MustCol("mo").Ints
	peerOp := calls.MustCol("peer_op").Ints
	success := calls.MustCol("success").Ints
	busy := calls.MustCol("busy").Ints
	fest := calls.MustCol("fest").Ints
	free := calls.MustCol("free").Ints
	gift := calls.MustCol("gift").Ints
	svc := calls.MustCol("svc").Ints
	manual := calls.MustCol("manual").Ints

	and := func(preds ...func(int) bool) func(int) bool {
		return func(i int) bool {
			for _, p := range preds {
				if !p(i) {
					return false
				}
			}
			return true
		}
	}
	isMO := func(i int) bool { return mo[i] == 1 }
	isMT := func(i int) bool { return mo[i] == 0 }
	ok := func(i int) bool { return success[i] == 1 }
	kindIs := func(k int64) func(int) bool { return func(i int) bool { return kind[i] == k } }
	localAny := func(i int) bool { return kind[i] == synth.CallLocalInner || kind[i] == synth.CallLocalOuter }
	notSvc := func(i int) bool { return svc[i] == 0 }

	var jobs []colJob
	sumJob := func(name string, pred func(int) bool) {
		jobs = append(jobs, oneCol(F1Baseline, name, 0, func() map[int64]float64 {
			return sumBy(calls, pred, "dur")
		}))
	}
	cntJob := func(name string, pred func(int) bool) {
		jobs = append(jobs, oneCol(F1Baseline, name, 0, func() map[int64]float64 {
			return countBy(calls, pred)
		}))
	}

	// Call durations (seconds).
	sumJob("localbase_inner_call_dur", and(inWin, isMO, ok, kindIs(synth.CallLocalInner), notSvc))
	sumJob("localbase_outer_call_dur", and(inWin, isMO, ok, kindIs(synth.CallLocalOuter)))
	sumJob("ld_call_dur", and(inWin, isMO, ok, kindIs(synth.CallLongDist)))
	sumJob("roam_call_dur", and(inWin, isMO, ok, kindIs(synth.CallRoam)))
	sumJob("localbase_called_dur", and(inWin, isMT, ok, localAny))
	sumJob("ld_called_dur", and(inWin, isMT, ok, kindIs(synth.CallLongDist)))
	sumJob("roam_called_dur", and(inWin, isMT, ok, kindIs(synth.CallRoam)))
	sumJob("cm_dur", and(inWin, ok, func(i int) bool { return peerOp[i] == synth.OpChinaMobile }))
	sumJob("ct_dur", and(inWin, ok, func(i int) bool { return peerOp[i] == synth.OpChinaTelecom }))
	sumJob("busy_call_dur", and(inWin, isMO, ok, func(i int) bool { return busy[i] == 1 }))
	sumJob("fest_call_dur", and(inWin, isMO, ok, func(i int) bool { return fest[i] == 1 }))
	sumJob("free_call_dur", and(inWin, ok, func(i int) bool { return free[i] == 1 }))
	sumJob("gift_voice_call_dur", and(inWin, ok, func(i int) bool { return gift[i] == 1 }))
	sumJob("voice_dur", and(inWin, ok))
	sumJob("caller_dur", and(inWin, isMO, ok))

	// Call counts.
	cntJob("all_call_cnt", inWin)
	cntJob("voice_cnt", and(inWin, ok))
	cntJob("local_base_call_cnt", and(inWin, isMO, localAny, notSvc))
	cntJob("ld_call_cnt", and(inWin, isMO, kindIs(synth.CallLongDist)))
	cntJob("roam_call_cnt", and(inWin, isMO, kindIs(synth.CallRoam)))
	cntJob("caller_cnt", and(inWin, isMO))
	cntJob("call_10010_cnt", and(inWin, func(i int) bool { return svc[i] == 1 }))
	cntJob("call_10010_manual_cnt", and(inWin, func(i int) bool { return manual[i] == 1 }))

	// Call minutes (duration/60 views the BI system reports separately).
	minuteJob := func(name string, pred func(int) bool) {
		jobs = append(jobs, oneCol(F1Baseline, name, 0, func() map[int64]float64 {
			return scale(sumBy(calls, pred, "dur"), 1.0/60)
		}))
	}
	minuteJob("local_call_minutes", and(inWin, isMO, ok, localAny))
	minuteJob("toll_call_minutes", and(inWin, isMO, ok, kindIs(synth.CallLongDist)))
	minuteJob("roam_call_minutes", and(inWin, isMO, ok, kindIs(synth.CallRoam)))
	minuteJob("voice_call_minutes", and(inWin, ok))

	// Messages.
	msgs := tbl.Messages
	mInWin := inWindow(msgs, win, daysPerMonth)
	mKind := msgs.MustCol("kind").Ints
	mMO := msgs.MustCol("mo").Ints
	mMMS := msgs.MustCol("mms").Ints
	mOp := msgs.MustCol("peer_op").Ints
	mRoamInt := msgs.MustCol("roam_int").Ints
	mGift := msgs.MustCol("gift").Ints

	mIsMO := func(i int) bool { return mMO[i] == 1 }
	mIsMT := func(i int) bool { return mMO[i] == 0 }
	isSMS := func(i int) bool { return mMMS[i] == 0 }
	isMMS := func(i int) bool { return mMMS[i] == 1 }
	p2p := func(i int) bool { return mKind[i] == synth.MsgP2P }
	opIs := func(op int64) func(int) bool { return func(i int) bool { return mOp[i] == op } }

	msgJob := func(name string, pred func(int) bool) {
		jobs = append(jobs, oneCol(F1Baseline, name, 0, func() map[int64]float64 {
			return countBy(msgs, pred)
		}))
	}
	msgJob("sms_p2p_inner_mo_cnt", and(mInWin, p2p, mIsMO, isSMS, opIs(synth.OpSelf)))
	msgJob("sms_p2p_other_mo_cnt", and(mInWin, p2p, mIsMO, isSMS, func(i int) bool { return mOp[i] != synth.OpSelf }))
	msgJob("sms_p2p_cm_mo_cnt", and(mInWin, p2p, mIsMO, isSMS, opIs(synth.OpChinaMobile)))
	msgJob("sms_p2p_ct_mo_cnt", and(mInWin, p2p, mIsMO, isSMS, opIs(synth.OpChinaTelecom)))
	msgJob("sms_info_mo_cnt", and(mInWin, func(i int) bool { return mKind[i] == synth.MsgInfo }))
	msgJob("sms_p2p_roam_int_mo_cnt", and(mInWin, p2p, mIsMO, isSMS, func(i int) bool { return mRoamInt[i] == 1 }))
	msgJob("sms_bill_cnt", and(mInWin, func(i int) bool { return mKind[i] == synth.MsgBilling }))
	msgJob("sms_p2p_mt_cnt", and(mInWin, p2p, mIsMT, isSMS))
	msgJob("serve_sms_count", and(mInWin, func(i int) bool { return mKind[i] == synth.MsgService }))
	msgJob("mms_cnt", and(mInWin, isMMS))
	msgJob("mms_p2p_inner_mo_cnt", and(mInWin, p2p, mIsMO, isMMS, opIs(synth.OpSelf)))
	msgJob("mms_p2p_other_mo_cnt", and(mInWin, p2p, mIsMO, isMMS, func(i int) bool { return mOp[i] != synth.OpSelf }))
	msgJob("mms_p2p_mt_cnt", and(mInWin, p2p, mIsMT, isMMS))
	msgJob("p2p_sms_mo_cnt", and(mInWin, p2p, mIsMO, isSMS))
	msgJob("gift_sms_mo_cnt", and(mInWin, mIsMO, func(i int) bool { return mGift[i] == 1 }))

	jobs = append(jobs, oneCol(F1Baseline, "distinct_serve_count", 0, func() map[int64]float64 {
		return distinctBy(msgs, and(mInWin, func(i int) bool { return mKind[i] == synth.MsgService }), "peer")
	}))

	// Billing snapshot (window's last month) — one cheap job for all columns.
	jobs = append(jobs, func() []column {
		billing := snapshotMonth(tbl.Billing, win, daysPerMonth)
		var cols []column
		for _, c := range []struct{ col, name string }{
			{"balance", "balance"},
			{"total_charge", "total_charge"},
			{"recharge_value", "recharge_value"},
			{"balance_rate", "balance_rate"},
			{"gprs_flux", "gprs_flux"},
			{"gprs_charge", "gprs_charge"},
			{"sms_charge", "p2p_sms_mo_charge"},
			{"gift_flux", "gift_flux_value"},
		} {
			cols = append(cols, column{group: F1Baseline, name: c.name, values: colMap(billing, c.col)})
		}
		return cols
	})

	// Recharge events.
	rech := tbl.Recharges
	rInWin := inWindow(rech, win, daysPerMonth)
	jobs = append(jobs, oneCol(F1Baseline, "recharge_cnt", 0, func() map[int64]float64 {
		return countBy(rech, rInWin)
	}))

	// Demographics (window's last month snapshot).
	jobs = append(jobs, func() []column {
		var cols []column
		for _, c := range []string{
			"age", "gender", "pspt_type", "is_shanghai", "town_id", "sale_id",
			"product_id", "product_price", "product_knd", "credit_value", "innet_dura",
		} {
			cols = append(cols, column{group: F1Baseline, name: c, values: colMap(cust, c)})
		}
		return cols
	})

	// Complaints and activity spread.
	jobs = append(jobs, oneCol(F1Baseline, "complaint_cnt", 0, func() map[int64]float64 {
		return countBy(tbl.Complaints, inWindow(tbl.Complaints, win, daysPerMonth))
	}))
	jobs = append(jobs, oneCol(F1Baseline, "active_call_days", 0, func() map[int64]float64 {
		return distinctBy(calls, inWin, "day")
	}))
	jobs = append(jobs, oneCol(F1Baseline, "gprs_all_flux", 0, func() map[int64]float64 {
		return sumBy(tbl.Web, inWindow(tbl.Web, win, daysPerMonth), "flux")
	}))

	// Within-window usage-trend features: the classic "declining usage"
	// baseline churn signals every BI churn model carries. Halves are split
	// at the window midpoint in absolute days.
	mid := (win.FromAbs + win.ToAbs) / 2
	absOf := func(t *table.Table) func(int) float64 {
		ms := t.MustCol("month").Ints
		ds := t.MustCol("day").Ints
		return func(i int) float64 { return float64(AbsDay(int(ms[i]), int(ds[i]), daysPerMonth)) }
	}

	jobs = append(jobs, oneCol(F1Baseline, "call_dur_decline", 0, func() map[int64]float64 {
		callAbs := absOf(calls)
		firstHalfDur := sumBy(calls, and(inWin, ok, func(i int) bool { return callAbs(i) <= float64(mid) }), "dur")
		secondHalfDur := sumBy(calls, and(inWin, ok, func(i int) bool { return callAbs(i) > float64(mid) }), "dur")
		decline := make(map[int64]float64, len(firstHalfDur))
		for id, fh := range firstHalfDur {
			decline[id] = secondHalfDur[id] / (fh + 60)
		}
		for id, sh := range secondHalfDur {
			if _, seen := firstHalfDur[id]; !seen {
				decline[id] = sh / 60
			}
		}
		return decline
	}))

	jobs = append(jobs, oneCol(F1Baseline, "flux_decline", 0, func() map[int64]float64 {
		webAbs := absOf(tbl.Web)
		webWin := inWindow(tbl.Web, win, daysPerMonth)
		fhFlux := sumBy(tbl.Web, func(i int) bool { return webWin(i) && webAbs(i) <= float64(mid) }, "flux")
		shFlux := sumBy(tbl.Web, func(i int) bool { return webWin(i) && webAbs(i) > float64(mid) }, "flux")
		fluxDecline := make(map[int64]float64, len(fhFlux))
		for id, fh := range fhFlux {
			fluxDecline[id] = shFlux[id] / (fh + 5)
		}
		for id, sh := range shFlux {
			if _, seen := fhFlux[id]; !seen {
				fluxDecline[id] = sh / 5
			}
		}
		return fluxDecline
	}))

	// Last day with any voice or data activity, relative to window start.
	jobs = append(jobs, oneCol(F1Baseline, "last_active_day", 0, func() map[int64]float64 {
		webWin := inWindow(tbl.Web, win, daysPerMonth)
		lastCall := maxAbsDay(calls, inWin, absOf(calls))
		lastWeb := maxAbsDay(tbl.Web, webWin, absOf(tbl.Web))
		lastActive := make(map[int64]float64, len(lastCall))
		for id, v := range lastCall {
			lastActive[id] = v - float64(win.FromAbs) + 1
		}
		for id, v := range lastWeb {
			rel := v - float64(win.FromAbs) + 1
			if rel > lastActive[id] {
				lastActive[id] = rel
			}
		}
		return lastActive
	}))

	// Last recharge day relative to window start (0 = none in window).
	jobs = append(jobs, oneCol(F1Baseline, "last_recharge_day", 0, func() map[int64]float64 {
		lastRecharge := maxAbsDay(rech, rInWin, absOf(rech))
		lastRechargeRel := make(map[int64]float64, len(lastRecharge))
		for id, v := range lastRecharge {
			lastRechargeRel[id] = v - float64(win.FromAbs) + 1
		}
		return lastRechargeRel
	}))

	return jobs
}

// maxAbsDay returns each customer's maximum absolute event day.
func maxAbsDay(t *table.Table, pred func(int) bool, abs func(int) float64) map[int64]float64 {
	imsi := t.MustCol("imsi").Ints
	out := make(map[int64]float64)
	n := t.NumRows()
	for i := 0; i < n; i++ {
		if !pred(i) {
			continue
		}
		if v := abs(i); v > out[imsi[i]] {
			out[imsi[i]] = v
		}
	}
	return out
}

func f2Jobs(tbl Tables, win Window, daysPerMonth int) []colJob {
	calls := tbl.Calls
	inWin := inWindow(calls, win, daysPerMonth)
	success := calls.MustCol("success").Ints
	dropped := calls.MustCol("dropped").Ints
	svc := calls.MustCol("svc").Ints

	// Exclude synthetic service-line rows from quality KPIs.
	real := func(i int) bool { return inWin(i) && svc[i] == 0 }
	okPred := func(i int) bool { return real(i) && success[i] == 1 }

	return []colJob{
		oneCol(F2CS, "call_success_rate", 1, func() map[int64]float64 {
			return ratio(countBy(calls, okPred), countBy(calls, real), 1)
		}),
		oneCol(F2CS, "e2e_conn_delay", 0, func() map[int64]float64 {
			return meanBy(calls, okPred, "conn_delay")
		}),
		oneCol(F2CS, "call_drop_rate", 0, func() map[int64]float64 {
			drops := countBy(calls, func(i int) bool { return real(i) && dropped[i] == 1 })
			return ratio(drops, countBy(calls, okPred), 0)
		}),
		oneCol(F2CS, "uplink_mos", 0, func() map[int64]float64 { return meanBy(calls, okPred, "mos_ul") }),
		oneCol(F2CS, "voice_quality", 0, func() map[int64]float64 { return meanBy(calls, okPred, "mos_dl") }),
		oneCol(F2CS, "ip_mos", 0, func() map[int64]float64 { return meanBy(calls, okPred, "mos_ip") }),
		oneCol(F2CS, "oneway_audio_cnt", 0, func() map[int64]float64 { return sumByInt(calls, real, "oneway") }),
		oneCol(F2CS, "noise_cnt", 0, func() map[int64]float64 { return sumByInt(calls, real, "noise") }),
		oneCol(F2CS, "echo_cnt", 0, func() map[int64]float64 { return sumByInt(calls, real, "echo") }),
	}
}

// sumByInt sums an Int64 column per customer.
func sumByInt(t *table.Table, pred func(int) bool, col string) map[int64]float64 {
	return sumBy(t, pred, col)
}

func f3Jobs(tbl Tables, win Window, daysPerMonth int) []colJob {
	web := tbl.Web
	inWin := inWindow(web, win, daysPerMonth)

	jobs := []colJob{
		oneCol(F3PS, "page_response_success_rate", 1, func() map[int64]float64 {
			return ratio(sumBy(web, inWin, "page_succ"), sumBy(web, inWin, "page_req"), 1)
		}),
		oneCol(F3PS, "page_response_delay", 0, func() map[int64]float64 { return meanBy(web, inWin, "resp_delay") }),
		oneCol(F3PS, "page_browsing_success_rate", 1, func() map[int64]float64 {
			return ratio(sumBy(web, inWin, "browse_succ"), sumBy(web, inWin, "page_succ"), 1)
		}),
		oneCol(F3PS, "page_browsing_delay", 0, func() map[int64]float64 { return meanBy(web, inWin, "browse_delay") }),
		oneCol(F3PS, "page_download_throughput", 0, func() map[int64]float64 { return meanBy(web, inWin, "dl_tp") }),
		oneCol(F3PS, "upload_throughput", 0, func() map[int64]float64 { return meanBy(web, inWin, "ul_tp") }),
		oneCol(F3PS, "ps_flux", 0, func() map[int64]float64 { return sumBy(web, inWin, "flux") }),
		oneCol(F3PS, "tcp_conn_rate", 1, func() map[int64]float64 {
			return ratio(sumBy(web, inWin, "tcp_ok"), sumBy(web, inWin, "tcp_att"), 1)
		}),
		oneCol(F3PS, "tcp_rtt", 0, func() map[int64]float64 { return meanBy(web, inWin, "tcp_rtt") }),
		oneCol(F3PS, "streaming_filesize", 0, func() map[int64]float64 { return sumBy(web, inWin, "stream_size") }),
		oneCol(F3PS, "streaming_dw_packets", 0, func() map[int64]float64 { return sumBy(web, inWin, "stream_pkts") }),
		oneCol(F3PS, "email_cnt", 0, func() map[int64]float64 { return sumBy(web, inWin, "email_cnt") }),
		oneCol(F3PS, "email_success_rate", 1, func() map[int64]float64 {
			return ratio(sumBy(web, inWin, "email_ok"), sumBy(web, inWin, "email_cnt"), 1)
		}),
		oneCol(F3PS, "ps_active_days", 0, func() map[int64]float64 { return distinctBy(web, inWin, "day") }),
		oneCol(F3PS, "page_cnt", 0, func() map[int64]float64 { return sumBy(web, inWin, "page_req") }),
		oneCol(F3PS, "page_size_mean", 0, func() map[int64]float64 { return meanBy(web, inWin, "page_size") }),
	}
	jobs = append(jobs, topLocationJob(tbl, win, daysPerMonth))
	return jobs
}

// topLocationJob computes the top-5 most frequent stay locations (lat/lon
// pairs) from MR data — 10 F3 features per the paper (minus one slot used
// by page_size_mean above, keeping the group at 25 columns). One scan feeds
// all nine columns, so it is a single multi-column job.
func topLocationJob(tbl Tables, win Window, daysPerMonth int) colJob {
	return func() []column {
		loc := tbl.Locations
		inWin := inWindow(loc, win, daysPerMonth)
		imsi := loc.MustCol("imsi").Ints
		cellCol := loc.MustCol("cell").Ints
		latCol := loc.MustCol("lat").Floats
		lonCol := loc.MustCol("lon").Floats

		type cellStat struct {
			count    int
			lat, lon float64
		}
		perCustomer := make(map[int64]map[int64]*cellStat)
		n := loc.NumRows()
		for i := 0; i < n; i++ {
			if !inWin(i) {
				continue
			}
			id := imsi[i]
			cells := perCustomer[id]
			if cells == nil {
				cells = make(map[int64]*cellStat)
				perCustomer[id] = cells
			}
			cs := cells[cellCol[i]]
			if cs == nil {
				cs = &cellStat{lat: latCol[i], lon: lonCol[i]}
				cells[cellCol[i]] = cs
			}
			cs.count++
		}

		const topN = 4 // 4 locations x 2 coords = 8 columns; +visit spread = 9
		lats := make([]map[int64]float64, topN)
		lons := make([]map[int64]float64, topN)
		for k := range lats {
			lats[k] = make(map[int64]float64)
			lons[k] = make(map[int64]float64)
		}
		distinctCells := make(map[int64]float64)
		for id, cells := range perCustomer {
			type kv struct {
				cell int64
				st   *cellStat
			}
			ranked := make([]kv, 0, len(cells))
			for c, st := range cells {
				ranked = append(ranked, kv{c, st})
			}
			sort.Slice(ranked, func(a, b int) bool {
				if ranked[a].st.count != ranked[b].st.count {
					return ranked[a].st.count > ranked[b].st.count
				}
				return ranked[a].cell < ranked[b].cell
			})
			for k := 0; k < topN && k < len(ranked); k++ {
				lats[k][id] = ranked[k].st.lat
				lons[k][id] = ranked[k].st.lon
			}
			distinctCells[id] = float64(len(cells))
		}
		var cols []column
		for k := 0; k < topN; k++ {
			cols = append(cols, column{group: F3PS, name: fmt.Sprintf("loc_top%d_lat", k+1), values: lats[k]})
			cols = append(cols, column{group: F3PS, name: fmt.Sprintf("loc_top%d_lon", k+1), values: lons[k]})
		}
		cols = append(cols, column{group: F3PS, name: "loc_distinct_cells", values: distinctCells})
		return cols
	}
}
