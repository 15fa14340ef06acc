// Package insight implements the "network insight" side of the paper's
// application layer (Figure 2): operator-facing aggregations that connect
// churn to the radio network — which cells are bleeding customers, and does
// their measured quality explain it. The paper motivates this as the
// customer-centric network optimization loop: "We can use a customer-centric
// network optimization solution to improve KPI/KQI experiences of potential
// churners" (Section 5.3).
package insight

import (
	"fmt"
	"io"
	"math"
	"sort"

	"telcochurn/internal/features"
	"telcochurn/internal/table"
)

// CellReport summarizes one cell's customer base, churn and quality for one
// observation window.
type CellReport struct {
	Cell       int64
	Lac        int64
	Customers  int // distinct customers whose dominant cell this is
	Churners   int // of those, labeled churners in the label month
	ChurnRate  float64
	AvgQuality float64 // mean per-customer quality index (higher = worse)
}

// NetworkReport is the ranked per-cell view.
type NetworkReport struct {
	Cells []CellReport
	// QualityChurnCorr is the Pearson correlation between a cell's average
	// quality index and its churn rate (positive = bad quality cells churn
	// more), weighted by customer count.
	QualityChurnCorr float64
}

// BuildNetworkReport assigns every customer to their dominant cell in the
// window (most location fixes), computes per-cell churn against the truth
// labels, and derives a per-cell quality index from the PS records
// (normalized page response delay — higher is worse).
func BuildNetworkReport(tbl features.Tables, win features.Window, daysPerMonth int, labels map[int64]int) (*NetworkReport, error) {
	dominant, lacOf, err := dominantCells(tbl.Locations, win, daysPerMonth)
	if err != nil {
		return nil, err
	}
	quality := customerQuality(tbl.Web, win, daysPerMonth)

	type acc struct {
		customers, churners int
		qualitySum          float64
		qualityN            int
	}
	cells := map[int64]*acc{}
	for id, cell := range dominant {
		y, ok := labels[id]
		if !ok {
			continue
		}
		a := cells[cell]
		if a == nil {
			a = &acc{}
			cells[cell] = a
		}
		a.customers++
		if y == 1 {
			a.churners++
		}
		if q, ok := quality[id]; ok {
			a.qualitySum += q
			a.qualityN++
		}
	}

	report := &NetworkReport{}
	for cell, a := range cells {
		cr := CellReport{
			Cell:      cell,
			Lac:       lacOf[cell],
			Customers: a.customers,
			Churners:  a.churners,
		}
		if a.customers > 0 {
			cr.ChurnRate = float64(a.churners) / float64(a.customers)
		}
		if a.qualityN > 0 {
			cr.AvgQuality = a.qualitySum / float64(a.qualityN)
		}
		report.Cells = append(report.Cells, cr)
	}
	sort.Slice(report.Cells, func(i, j int) bool {
		if report.Cells[i].ChurnRate != report.Cells[j].ChurnRate {
			return report.Cells[i].ChurnRate > report.Cells[j].ChurnRate
		}
		return report.Cells[i].Cell < report.Cells[j].Cell
	})
	report.QualityChurnCorr = weightedCorr(report.Cells)
	return report, nil
}

// dominantCells maps each customer to the cell with the most MR fixes.
func dominantCells(loc *table.Table, win features.Window, daysPerMonth int) (map[int64]int64, map[int64]int64, error) {
	months := loc.MustCol("month").Ints
	days := loc.MustCol("day").Ints
	imsi := loc.MustCol("imsi").Ints
	cell := loc.MustCol("cell").Ints
	lac := loc.MustCol("lac").Ints

	counts := map[int64]map[int64]int{}
	lacOf := map[int64]int64{}
	n := loc.NumRows()
	for i := 0; i < n; i++ {
		abs := features.AbsDay(int(months[i]), int(days[i]), daysPerMonth)
		if abs < win.FromAbs || abs > win.ToAbs {
			continue
		}
		m := counts[imsi[i]]
		if m == nil {
			m = map[int64]int{}
			counts[imsi[i]] = m
		}
		m[cell[i]]++
		lacOf[cell[i]] = lac[i]
	}
	dominant := make(map[int64]int64, len(counts))
	for id, m := range counts {
		bestCell, bestN := int64(-1), -1
		for c, k := range m {
			if k > bestN || (k == bestN && c < bestCell) {
				bestCell, bestN = c, k
			}
		}
		dominant[id] = bestCell
	}
	return dominant, lacOf, nil
}

// customerQuality derives a per-customer quality index from the PS records:
// mean page response delay (seconds, higher = worse experience).
func customerQuality(web *table.Table, win features.Window, daysPerMonth int) map[int64]float64 {
	months := web.MustCol("month").Ints
	days := web.MustCol("day").Ints
	imsi := web.MustCol("imsi").Ints
	delay := web.MustCol("resp_delay").Floats

	sums := map[int64]float64{}
	counts := map[int64]int{}
	n := web.NumRows()
	for i := 0; i < n; i++ {
		abs := features.AbsDay(int(months[i]), int(days[i]), daysPerMonth)
		if abs < win.FromAbs || abs > win.ToAbs {
			continue
		}
		sums[imsi[i]] += delay[i]
		counts[imsi[i]]++
	}
	out := make(map[int64]float64, len(sums))
	for id, s := range sums {
		out[id] = s / float64(counts[id])
	}
	return out
}

// weightedCorr computes the customer-weighted Pearson correlation between
// cell quality and churn rate.
func weightedCorr(cells []CellReport) float64 {
	var wSum, qMean, cMean float64
	for _, c := range cells {
		w := float64(c.Customers)
		wSum += w
		qMean += float64(w * c.AvgQuality)
		cMean += float64(w * c.ChurnRate)
	}
	if wSum == 0 {
		return 0
	}
	qMean /= wSum
	cMean /= wSum
	var cov, qVar, cVar float64
	for _, c := range cells {
		w := float64(c.Customers)
		dq := c.AvgQuality - qMean
		dc := c.ChurnRate - cMean
		cov += float64(w * dq * dc)
		qVar += float64(w * dq * dq)
		cVar += float64(w * dc * dc)
	}
	if qVar == 0 || cVar == 0 {
		return 0
	}
	return cov / math.Sqrt(qVar*cVar)
}

// Render prints the worst n cells in an operator-report layout.
func (r *NetworkReport) Render(w io.Writer, n int) {
	if n <= 0 || n > len(r.Cells) {
		n = len(r.Cells)
	}
	fmt.Fprintf(w, "network insight: %d cells, quality-churn correlation %.3f\n", len(r.Cells), r.QualityChurnCorr)
	fmt.Fprintln(w, "cell   lac  customers  churners  churn%   avg_resp_delay")
	for _, c := range r.Cells[:n] {
		fmt.Fprintf(w, "%-5d  %-3d  %-9d  %-8d  %-6.2f  %.2fs\n",
			c.Cell, c.Lac, c.Customers, c.Churners, 100*c.ChurnRate, c.AvgQuality)
	}
}
