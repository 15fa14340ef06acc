package features

import (
	"fmt"
	"sort"
	"strings"

	"telcochurn/internal/parallel"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
)

// TopicFeaturizer holds a trained LDA model for one text source (complaints
// or search queries). Fit it on the training window's corpus; Apply folds in
// any month's documents against the fixed topic-word distributions, so test
// months never influence the topics.
type TopicFeaturizer struct {
	model  *topic.Model
	group  Group
	prefix string
}

// aggregateTexts concatenates each customer's texts in the window, over
// the rows rs of t, into one document (Section 4.1.3: "each customer can be
// represented as a document containing a bag of words").
func aggregateTexts(t *table.Table, rs rowSet, win Window, daysPerMonth int) map[int64]string {
	inWin := inWindow(t, win, daysPerMonth)
	imsi := t.MustCol("imsi").Ints
	text := t.MustCol("text").Strings
	var sb map[int64]*strings.Builder = make(map[int64]*strings.Builder)
	for k, n := 0, rs.count(t); k < n; k++ {
		i := rs.row(k)
		if !inWin(i) {
			continue
		}
		b := sb[imsi[i]]
		if b == nil {
			b = &strings.Builder{}
			sb[imsi[i]] = b
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(text[i])
	}
	out := make(map[int64]string, len(sb))
	for id, b := range sb {
		out[id] = b.String()
	}
	return out
}

// FitTopicFeaturizer trains LDA (K topics via belief propagation) on the
// window's customer documents from the given text table.
func FitTopicFeaturizer(t *table.Table, win Window, daysPerMonth int, group Group, prefix string, cfg topic.Config) (*TopicFeaturizer, error) {
	docs := aggregateTexts(t, rowSet{all: true}, win, daysPerMonth)
	corpus := topic.NewCorpus()
	// Deterministic document order.
	ids := sortedKeys(docs)
	for _, id := range ids {
		corpus.AddDoc(id, docs[id])
	}
	if corpus.NumDocs() == 0 {
		return nil, fmt.Errorf("features: no %s documents in window [%d,%d]", prefix, win.FromAbs, win.ToAbs)
	}
	model, err := topic.Fit(corpus, cfg)
	if err != nil {
		return nil, err
	}
	return &TopicFeaturizer{model: model, group: group, prefix: prefix}, nil
}

// Apply adds K topic-proportion columns for the window's documents to the
// frame, folding documents in on the caller's goroutine. Customers with no
// text get the uniform distribution.
func (tf *TopicFeaturizer) Apply(f *Frame, t *table.Table, win Window, daysPerMonth int) {
	tf.apply(f, t, rowSet{all: true}, win, daysPerMonth, 1)
}

// apply is Apply over the documents of the rows rs of t, with the
// per-document fold-ins spread over workers goroutines (0 = GOMAXPROCS).
// Each document's theta lands in its own slot and the rows fill serially,
// so the frame is bit-identical for any worker count.
func (tf *TopicFeaturizer) apply(f *Frame, t *table.Table, rs rowSet, win Window, daysPerMonth, workers int) {
	docs := aggregateTexts(t, rs, win, daysPerMonth)
	ids := sortedKeys(docs)
	thetas := make([][]float64, len(ids))
	parallel.ForGrain(workers, len(ids), 64, func(i int) {
		thetas[i] = tf.model.FoldIn(docs[ids[i]], 0)
	})
	k := tf.model.K()
	uniform := make([]float64, k)
	for i := range uniform {
		uniform[i] = 1.0 / float64(k)
	}
	rows := make([][]float64, len(f.ids)) // each frame row's theta
	for r := range rows {
		rows[r] = uniform
	}
	for d, id := range ids {
		if r, ok := f.index[id]; ok {
			rows[r] = thetas[d]
		}
	}
	for i := 0; i < k; i++ {
		f.names = append(f.names, fmt.Sprintf("%s_topic_%d", tf.prefix, i))
		f.group = append(f.group, tf.group)
	}
	for r, theta := range rows {
		f.x[r] = append(f.x[r], theta...)
	}
}

func sortedKeys(m map[int64]string) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
