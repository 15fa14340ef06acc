package core

import (
	"errors"
	"fmt"
	"math/rand"

	"telcochurn/internal/dataset"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
	"telcochurn/internal/fm"
	"telcochurn/internal/parallel"
	"telcochurn/internal/sampling"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
	"telcochurn/internal/tree"
)

// Config parameterizes a churn-prediction pipeline run.
type Config struct {
	// Groups selects the feature groups to build (default: F1 only — the
	// baseline configuration of Figures 7-9 and Tables 5/7).
	Groups []features.Group
	// Classifier scores customers; nil means the paper's random forest with
	// its deployed defaults (overridable via Forest).
	Classifier Classifier
	// Forest configures the default RF classifier when Classifier is nil.
	Forest tree.ForestConfig
	// Imbalance is the class-imbalance treatment applied to the stacked
	// training set (default WeightedInstance, the paper's Table 7 winner).
	Imbalance sampling.Method
	// TopicK is the LDA topic count for F7/F8 (paper: 10).
	TopicK int
	// SecondOrderPairs is the F9 feature count (paper: 20).
	SecondOrderPairs int
	// Seed drives sampling and model RNGs.
	Seed int64
	// Workers caps pipeline parallelism end to end — wide-table build, graph
	// algorithms, forest training and batch scoring (0 = GOMAXPROCS). The
	// pipeline's outputs are bit-identical for any value: all RNG streams
	// are keyed by logical item, and every parallel reduction merges in a
	// fixed order.
	Workers int
	// StableSeedStride downsamples non-churner label-propagation seeds
	// (default 10: every 10th known non-churner anchors class 0).
	StableSeedStride int
}

// WithDefaults returns the config with every zero field replaced by the
// paper's default (F1-only groups, Weighted Instance imbalance, K=10
// topics, 20 second-order pairs, seed stride 10). Fit, NewFrameBuilder and
// Load all apply it, so callers may leave fields zero — but code that needs
// to know the effective values (persistence, serving, logging) should call
// it explicitly rather than re-deriving the defaults.
func (c Config) WithDefaults() Config {
	if len(c.Groups) == 0 {
		c.Groups = []features.Group{features.F1Baseline}
	}
	if c.Imbalance == 0 {
		c.Imbalance = sampling.WeightedInstance
	}
	if c.TopicK == 0 {
		c.TopicK = 10
	}
	if c.SecondOrderPairs == 0 {
		c.SecondOrderPairs = 20
	}
	if c.StableSeedStride == 0 {
		c.StableSeedStride = 10
	}
	return c
}

func (c Config) groupSet() features.GroupSet { return features.GroupSetOf(c.Groups...) }

// WindowSpec pairs a feature window with the month whose churn outcomes
// label it (Figure 6: features month N-1, labels month N).
type WindowSpec struct {
	Features   features.Window
	LabelMonth int
	// SampleFrac optionally subsamples this window's labeled instances
	// (0 or 1 = keep all). The Velocity experiment uses it to model update
	// cadence: a system refreshed every c days has, on average, folded in
	// only part of the freshest month's labels.
	SampleFrac float64
}

// MonthSpec is the common whole-month case: features from featureMonth,
// labels from featureMonth+1.
func MonthSpec(featureMonth, daysPerMonth int) WindowSpec {
	return WindowSpec{
		Features:   features.MonthWindow(featureMonth, daysPerMonth),
		LabelMonth: featureMonth + 1,
	}
}

// NewFrameBuilder returns an unfitted pipeline usable only for building
// frames (BuildFrame and its degraded / sharded variants), for feature
// groups that need no fitted feature models (F1-F6: base aggregates and
// graph features). Topic (F7/F8) and second-order (F9) groups require Fit,
// which trains their LDA/FM models on the first training window; a frame
// build never trains one and fails with ErrUnfitted instead. Zero-valued
// cfg fields mean paper defaults — cfg is passed through
// Config.WithDefaults.
func NewFrameBuilder(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.WithDefaults()}
}

// Pipeline is a fitted churn predictor.
type Pipeline struct {
	cfg        Config
	clf        Classifier
	complaints *features.TopicFeaturizer
	search     *features.TopicFeaturizer
	so         *features.SecondOrderSelector
	featNames  []string
	vectors    *FeatureVectors // optional precomputed serving snapshot
}

// Fit builds training frames for every spec, fits the feature models (LDA on
// the first window's corpus, FM second-order selection on the first labeled
// frame), stacks the labeled datasets, applies the imbalance treatment, and
// trains the classifier. Zero-valued cfg fields mean paper defaults — cfg
// is passed through Config.WithDefaults before anything else reads it.
func Fit(src Source, train []WindowSpec, cfg Config) (*Pipeline, error) {
	cfg = cfg.WithDefaults()
	if len(train) == 0 {
		return nil, errors.New("core: no training windows")
	}
	p := &Pipeline{cfg: cfg}
	if cfg.Classifier != nil {
		p.clf = cfg.Classifier
	} else {
		fc := cfg.Forest
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed + 1
		}
		if fc.Workers == 0 {
			fc.Workers = cfg.Workers
		}
		p.clf = &RFClassifier{Config: fc}
	}

	var stacked *dataset.Dataset
	for i, spec := range train {
		frame, labels, err := p.buildLabeledFrame(src, spec, i == 0)
		if err != nil {
			return nil, fmt.Errorf("core: training window %d: %w", i, err)
		}
		d := frame.ToDataset(labels, -1)
		d = dropUnlabeled(d)
		if spec.SampleFrac > 0 && spec.SampleFrac < 1 {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*31 + 500))
			keep := rng.Perm(d.NumInstances())[:int(spec.SampleFrac*float64(d.NumInstances()))]
			d = d.Subset(keep)
		}
		if d.NumInstances() == 0 {
			return nil, fmt.Errorf("core: training window %d has no labeled rows", i)
		}
		if stacked == nil {
			stacked = d
		} else if err := stacked.Append(d); err != nil {
			return nil, err
		}
	}
	p.featNames = stacked.FeatureNames

	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	balanced, err := sampling.Apply(stacked, cfg.Imbalance, rng)
	if err != nil {
		return nil, fmt.Errorf("core: imbalance treatment: %w", err)
	}
	if err := p.clf.Fit(balanced); err != nil {
		return nil, fmt.Errorf("core: classifier fit: %w", err)
	}
	// The pipeline's Workers, not the classifier's own config, caps its
	// batch scoring, as it does after Load.
	p.SetWorkers(cfg.Workers)
	return p, nil
}

// dropUnlabeled removes rows whose label is negative (customers absent from
// the label month, i.e. already gone).
func dropUnlabeled(d *dataset.Dataset) *dataset.Dataset {
	var keep []int
	for i, y := range d.Y {
		if y >= 0 {
			keep = append(keep, i)
		}
	}
	return d.Subset(keep)
}

// buildLabeledFrame builds the feature frame for a spec and its label map.
func (p *Pipeline) buildLabeledFrame(src Source, spec WindowSpec, fitModels bool) (*features.Frame, map[int64]int, error) {
	truth, err := src.Truth(spec.LabelMonth)
	if err != nil {
		return nil, nil, err
	}
	labels := LabelsOf(truth)
	frame, err := p.BuildFrame(src, spec.Features, fitModels, labels)
	if err != nil {
		return nil, nil, err
	}
	return frame, labels, nil
}

// ErrUnfitted is returned by every frame build and Predict variant when a
// configured F7/F8/F9 group has no fitted feature model: only Fit (and
// BuildFrame with fitModels) trains one, a read path never does.
var ErrUnfitted = errors.New("core: feature group needs a fitted pipeline")

// BuildFrame assembles the wide table for a window with the configured
// feature groups. When fitModels is true the window also fits the LDA topic
// models and the FM second-order selector (trainLabels must then hold the
// window's churn labels) and stores them on the pipeline; otherwise the
// previously fitted models are applied, and a configured group without one
// fails with ErrUnfitted. trainLabels may be nil when fitModels is false.
func (p *Pipeline) BuildFrame(src Source, win features.Window, fitModels bool, trainLabels map[int64]int) (*features.Frame, error) {
	frame, _, _, err := p.buildFrame(src, win, 0, fitModels, trainLabels, false)
	return frame, err
}

// BuildFrameDegraded assembles the wide table tolerating unavailable raw
// tables: tables the source cannot produce (after whatever retries it
// performs) are replaced by empty stand-ins, their columns land at the
// schema's imputation defaults, and the returned bitmask names the feature
// groups built from imputed data. A table unavailable in any one shard is
// imputed around in that shard and degrades its groups for the whole frame.
// The build runs over src.NumShards() shards, like BuildFrameSharded. The
// frame's schema is identical to a healthy build — a fitted classifier
// scores it unchanged — and with nothing missing the result is
// bit-identical to BuildFrame. Degraded assembly is for scoring only: model
// fitting on imputed data would bake the outage into the artifact, so
// training paths keep the strict loader.
func (p *Pipeline) BuildFrameDegraded(src Source, win features.Window) (*features.Frame, features.ShardStats, features.Degradation, error) {
	return p.buildFrame(src, win, src.NumShards(), false, nil, true)
}

// buildFrame is the one frame build behind every entry point: it describes
// the window to features.BuildShardedFrame — shards readers of src's, or
// one whole-month reader when shards is 0 — then fits (fit) or applies F9
// on the merged frame. partial selects the degraded loader and turns a dead
// truth feed from an error into flagged graph groups; the returned mask
// names every configured group built from imputed data.
func (p *Pipeline) buildFrame(src Source, win features.Window, shards int, fit bool, trainLabels map[int64]int, partial bool) (*features.Frame, features.ShardStats, features.Degradation, error) {
	var (
		days  = src.DaysPerMonth()
		want  = p.cfg.groupSet()
		stats features.ShardStats
		deg   features.Degradation
	)
	if !fit && (want.Has(features.F7ComplaintTopics) && p.complaints == nil ||
		want.Has(features.F8SearchTopics) && p.search == nil ||
		want.Has(features.F9SecondOrder) && p.so == nil) {
		return nil, stats, 0, fmt.Errorf("%w (configured groups %s)", ErrUnfitted, want)
	}
	reader := func(shard int) features.TableReader {
		if shards == 0 {
			shard = -1
		}
		return src.ShardReader(shard)
	}
	spec := features.ShardedBuildSpec{
		Shards:       max(shards, 1),
		Win:          win,
		DaysPerMonth: days,
		Workers:      p.cfg.Workers,
		Groups:       want &^ features.GroupSetOf(features.F9SecondOrder),
		Complaints:   p.complaints,
		Search:       p.search,
		Load: func(s int) (features.Tables, []string, error) {
			return features.LoadTables(reader(s), win, days, !partial)
		},
		LoadCustomers: func(s int) (*table.Table, error) {
			return reader(s).ReadMonths(synth.TableCustomers, win.Months(days))
		},
	}
	if graphs := want & features.GraphGroups; graphs != 0 {
		// Label-propagation seeds are "the churners in the previous month"
		// (Section 4.1.2) — previous relative to the predicted month, i.e.
		// the feature month itself. Its churn outcomes are known by the
		// time the prediction for the next month is made, so this does not
		// leak labels. The graphs themselves are built over the feature
		// window — the paper's "accumulated mutual calling time ... in a
		// fixed period (e.g., a month)". Extending the window back a month
		// sounds tempting (a churner's final-month CDRs are sparse) but
		// measurably dilutes label propagation with stale edges; see the
		// abl-graphwin experiment.
		seedMonth := win.SnapshotMonth(days)
		truth, err := src.Truth(seedMonth)
		switch {
		case err == nil:
			spec.GraphIn = features.GraphFeatureInput{
				PrevChurners: features.ChurnersOf(truth),
				StableSample: features.StableOf(truth, p.cfg.StableSeedStride),
			}
		case partial:
			// No label-propagation seeds: the graph columns still build (over
			// whatever tables are present) but every propagated probability
			// sits at its uninformative prior, so the graph groups are
			// imputed in all but name — flag them.
			deg = graphs
		default:
			return nil, stats, 0, fmt.Errorf("core: graph features need truth of month %d: %w", seedMonth, err)
		}
	}
	if fit && want&features.TopicGroups != 0 {
		spec.FitTopics = func(tbl features.Tables) (*features.TopicFeaturizer, *features.TopicFeaturizer, error) {
			var err error
			if want.Has(features.F7ComplaintTopics) {
				p.complaints, err = features.FitTopicFeaturizer(tbl.Complaints, win, days, features.F7ComplaintTopics, "complaint",
					topic.Config{K: p.cfg.TopicK, Seed: p.cfg.Seed + 3})
			}
			if err == nil && want.Has(features.F8SearchTopics) {
				p.search, err = features.FitTopicFeaturizer(tbl.Search, win, days, features.F8SearchTopics, "search",
					topic.Config{K: p.cfg.TopicK, Seed: p.cfg.Seed + 5})
			}
			return p.complaints, p.search, err
		}
	}
	frame, stats, err := features.BuildShardedFrame(spec)
	if err != nil {
		return nil, stats, 0, err
	}
	deg |= features.DegradationOf(stats.Missing, want)

	if want.Has(features.F9SecondOrder) {
		if fit {
			if trainLabels == nil {
				return nil, stats, 0, errors.New("core: second-order selection needs training labels")
			}
			p.so, err = features.FitSecondOrder(frame, trainLabels, features.SecondOrderConfig{
				NumPairs: p.cfg.SecondOrderPairs,
				FM:       fm.Config{Seed: p.cfg.Seed + 7},
			})
			if err != nil {
				return nil, stats, 0, err
			}
		}
		if err := p.so.Apply(frame); err != nil {
			return nil, stats, 0, err
		}
		// Second-order features are products of base columns, so any
		// imputed upstream group degrades them too.
		if !deg.Empty() {
			deg.Add(features.F9SecondOrder)
		}
	}
	return frame, stats, deg, nil
}

// Predictions holds scored customers for one window.
type Predictions struct {
	IDs    []int64
	Scores []float64
	// Degraded names the configured feature groups that were built from
	// imputed data because their backing tables were unavailable. Always
	// zero for strict Predict; possibly non-zero for PredictDegraded.
	Degraded features.Degradation
}

// Predict scores every customer of the window (Eq. 4's likelihood).
func (p *Pipeline) Predict(src Source, win features.Window) (*Predictions, error) {
	preds, _, err := p.predict(src, win, 0, false)
	return preds, err
}

// PredictDegraded scores the window even when raw tables are unavailable,
// reporting the degradation mask alongside the scores (zero mask = the run
// was fully healthy and identical to Predict). It builds through
// BuildFrameDegraded's shard-by-shard path. Only a missing customer
// snapshot still fails, with features.ErrUniverseUnavailable.
func (p *Pipeline) PredictDegraded(src Source, win features.Window) (*Predictions, features.ShardStats, error) {
	return p.predict(src, win, src.NumShards(), true)
}

func (p *Pipeline) predict(src Source, win features.Window, shards int, partial bool) (*Predictions, features.ShardStats, error) {
	frame, stats, deg, err := p.buildFrame(src, win, shards, false, nil, partial)
	if err != nil {
		return nil, stats, err
	}
	return p.scoreFrame(frame, deg), stats, nil
}

func (p *Pipeline) scoreFrame(frame *features.Frame, deg features.Degradation) *Predictions {
	ids := frame.IDs()
	x := make([][]float64, frame.NumRows())
	parallel.For(p.cfg.Workers, len(ids), func(i int) {
		row, _ := frame.Row(ids[i])
		x[i] = row
	})
	scores := p.clf.ScoreAll(x)
	return &Predictions{IDs: append([]int64(nil), ids...), Scores: scores, Degraded: deg}
}

// Evaluate scores the test window and compares against the label month's
// truth, excluding customers already labeled churners in the feature month
// (the paper ranks "non-churners in the current month"). Returns the
// prediction list for retention use plus the metric report at u.
func (p *Pipeline) Evaluate(src Source, spec WindowSpec, u int) ([]eval.Prediction, eval.Report, error) {
	preds, err := p.Predict(src, spec.Features)
	if err != nil {
		return nil, eval.Report{}, err
	}
	// Exclude customers already labeled churners before the prediction
	// horizon (the paper ranks "non-churners in the current month"). The
	// current month is the one before the label month, which coincides with
	// the feature month for month-aligned windows and stays correct for
	// shifted velocity windows.
	curTruth, err := src.Truth(spec.LabelMonth - 1)
	if err != nil {
		return nil, eval.Report{}, err
	}
	currentChurners := features.ChurnersOf(curTruth)
	labelTruth, err := src.Truth(spec.LabelMonth)
	if err != nil {
		return nil, eval.Report{}, err
	}
	labels := LabelsOf(labelTruth)

	var out []eval.Prediction
	for i, id := range preds.IDs {
		if currentChurners[id] {
			continue
		}
		y, ok := labels[id]
		if !ok {
			continue
		}
		out = append(out, eval.Prediction{ID: id, Score: preds.Scores[i], Label: y})
	}
	return out, eval.Evaluate(out, u), nil
}

// FeatureNames returns the wide table's column names after fitting.
func (p *Pipeline) FeatureNames() []string { return p.featNames }

// Classifier returns the fitted classifier.
func (p *Pipeline) Classifier() Classifier { return p.clf }
