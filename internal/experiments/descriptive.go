package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/synth"
)

// Fig1Result reproduces Figure 1: monthly churn rates for prepaid vs
// postpaid customers over 12 months.
type Fig1Result struct {
	Points []synth.ChurnRatePoint
}

// Render implements Result.
func (r *Fig1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 1: churn rates over 12 months (paper: prepaid avg 9.4%, postpaid avg 5.2%)")
	rows := make([][]string, 0, len(r.Points))
	var pre, post float64
	for _, p := range r.Points {
		rows = append(rows, []string{fmt.Sprintf("%d", p.Month), pct(p.Prepaid), pct(p.Postpaid)})
		pre += p.Prepaid
		post += p.Postpaid
	}
	n := float64(len(r.Points))
	rows = append(rows, []string{"avg", pct(pre / n), pct(post / n)})
	renderRows(w, []string{"Month", "Prepaid", "Postpaid"}, rows)
}

// Fig1ChurnRates runs the Figure 1 experiment on a fresh 12-month world.
func Fig1ChurnRates(opts Options) *Fig1Result {
	opts = opts.withDefaults()
	cfg := synth.DefaultConfig()
	cfg.Customers = opts.Customers
	cfg.Seed = opts.Seed
	return &Fig1Result{Points: synth.ChurnRateSeries(cfg, 12)}
}

// Tab1Result reproduces Table 1: per-month churner / non-churner counts.
type Tab1Result struct {
	MonthsN    []int
	Churner    []int
	NonChurner []int
}

// Render implements Result.
func (r *Tab1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1: dataset statistics (paper: ~9.2% churners, stable population)")
	rows := make([][]string, 0, len(r.MonthsN))
	for i := range r.MonthsN {
		total := r.Churner[i] + r.NonChurner[i]
		rows = append(rows, []string{
			fmt.Sprintf("Month %d", r.MonthsN[i]),
			fmt.Sprintf("%d", r.Churner[i]),
			fmt.Sprintf("%d", r.NonChurner[i]),
			fmt.Sprintf("%d", total),
			pct(float64(r.Churner[i]) / float64(total)),
		})
	}
	renderRows(w, []string{"", "Churner", "No-Churner", "Total", "Rate"}, rows)
}

// Tab1DatasetStats runs the Table 1 experiment.
func Tab1DatasetStats(env *Env) *Tab1Result {
	r := &Tab1Result{}
	for _, md := range env.Months {
		churn := md.Truth.MustCol("churn").Ints
		c := 0
		for _, v := range churn {
			if v == 1 {
				c++
			}
		}
		r.MonthsN = append(r.MonthsN, md.Month)
		r.Churner = append(r.Churner, c)
		r.NonChurner = append(r.NonChurner, len(churn)-c)
	}
	return r
}

// Fig5Result reproduces Figure 5: the distribution of days-until-recharge
// among customers observed in the recharge period.
type Fig5Result struct {
	// Counts[d] = customers who recharged after d days (d=0: never).
	Counts []int
}

// Render implements Result.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: recharge-period day distribution (paper: <5% of rechargers beyond 15 days)")
	recharged, late := 0, 0
	rows := make([][]string, 0, len(r.Counts))
	for d, c := range r.Counts {
		label := fmt.Sprintf("%d", d)
		if d == 0 {
			label = "never"
		} else {
			recharged += c
			if d > 15 {
				late += c
			}
		}
		rows = append(rows, []string{label, fmt.Sprintf("%d", c)})
	}
	renderRows(w, []string{"Days", "Customers"}, rows)
	if recharged > 0 {
		fmt.Fprintf(w, "rechargers beyond 15 days: %d/%d = %s (labeled churners by the 15-day rule)\n",
			late, recharged, pct(float64(late)/float64(recharged)))
	}
}

// Fig5RechargeDistribution runs the Figure 5 experiment.
func Fig5RechargeDistribution(env *Env) *Fig5Result {
	return &Fig5Result{Counts: synth.RechargeDayCounts(env.Months)}
}
