// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 5), each printing the same rows/series the
// paper reports, at a population scale chosen by Options. DESIGN.md §4 maps
// every experiment id to its modules; EXPERIMENTS.md records paper-vs-
// measured outcomes.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"telcochurn/internal/core"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// Options scales and seeds an experiment run.
type Options struct {
	// Customers is the per-month population (the paper's 2.1M scaled down;
	// top-U cutoffs scale with it). Default 4000.
	Customers int
	// Months simulated. Default 9 (Table 1); Fig7 extends internally.
	Months int
	// Seed drives the generator and all models.
	Seed int64
	// Trees is the RF/GBDT ensemble size (paper: 500; default 150 keeps
	// laptop runs quick — the curves saturate well below 500 at this scale).
	Trees int
	// MinLeaf is the minimum leaf population (paper: 100 at 2M rows;
	// default 25 at experiment scale).
	MinLeaf int
	// Repeats is how many sliding-window anchors to average (the paper uses
	// 3-7). Default 2.
	Repeats int
	// Workers caps parallelism across the whole run — experiment fan-out,
	// wide-table build, graph algorithms and forest training (0 =
	// GOMAXPROCS). Results are bit-identical for any value.
	Workers int
	// Bins enables histogram split search in the forests (ForestConfig
	// MaxBins); 0 keeps exact splits.
	Bins int
}

func (o Options) withDefaults() Options {
	if o.Customers == 0 {
		o.Customers = 4000
	}
	if o.Months == 0 {
		o.Months = 9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trees == 0 {
		o.Trees = 150
	}
	if o.MinLeaf == 0 {
		o.MinLeaf = 25
	}
	if o.Repeats == 0 {
		o.Repeats = 2
	}
	return o
}

func (o Options) forest() tree.ForestConfig {
	return tree.ForestConfig{NumTrees: o.Trees, MinLeafSamples: o.MinLeaf, Seed: o.Seed + 11, Workers: o.Workers, MaxBins: o.Bins}
}

// CoreConfig converts the knob surface into a core.Config — the single
// place the Options-to-pipeline mapping is declared, shared by every
// experiment runner and by churnctl train. Callers layer run-specific
// fields (Groups, Imbalance, Classifier, seed shifts) on top.
func (o Options) CoreConfig() core.Config {
	o = o.withDefaults()
	return core.Config{
		Forest:  o.forest(),
		Seed:    o.Seed,
		Workers: o.Workers,
	}
}

// scaleU maps a paper top-U cutoff onto this run's population.
func (o Options) scaleU(paperU int) int { return synth.ScaleU(paperU, o.Customers) }

// Env is a simulated world shared across experiments.
type Env struct {
	Opts   Options
	Months []*synth.MonthData
	Src    core.Source
	days   int
}

// NewEnv simulates Opts.Months months once.
func NewEnv(opts Options) *Env {
	opts = opts.withDefaults()
	cfg := synth.DefaultConfig()
	cfg.Customers = opts.Customers
	cfg.Months = opts.Months
	cfg.Seed = opts.Seed
	months := synth.Simulate(cfg)
	return &Env{
		Opts:   opts,
		Months: months,
		Src:    core.NewMemorySource(months, cfg.DaysPerMonth),
		days:   cfg.DaysPerMonth,
	}
}

// Days returns the days-per-month granularity.
func (e *Env) Days() int { return e.days }

// Result is the common interface of experiment outputs: a table renderable
// to text in the paper's layout.
type Result interface {
	// Render writes the paper-style table.
	Render(w io.Writer)
}

// renderRows prints an aligned text table.
func renderRows(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f5(v float64) string  { return fmt.Sprintf("%.5f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
