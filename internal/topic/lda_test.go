package topic

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"telcochurn/internal/codec"
)

// twoTopicCorpus builds documents drawn purely from one of two disjoint
// vocabularies, so a 2-topic LDA must separate them.
func twoTopicCorpus(docs int, seed int64) (*Corpus, []int) {
	rng := rand.New(rand.NewSource(seed))
	vocabA := []string{"signal", "drop", "slow", "coverage", "outage"}
	vocabB := []string{"bill", "charge", "refund", "fee", "payment"}
	c := NewCorpus()
	truth := make([]int, docs)
	for d := 0; d < docs; d++ {
		src := vocabA
		if d%2 == 1 {
			src = vocabB
			truth[d] = 1
		}
		words := make([]string, 12)
		for i := range words {
			words[i] = src[rng.Intn(len(src))]
		}
		c.AddDoc(int64(d), strings.Join(words, " "))
	}
	return c, truth
}

func TestCorpusBuilding(t *testing.T) {
	c := NewCorpus()
	c.AddDoc(1, "a b a")
	c.AddDoc(2, "b c")
	if c.NumDocs() != 2 {
		t.Errorf("NumDocs = %d", c.NumDocs())
	}
	if c.VocabSize() != 3 {
		t.Errorf("VocabSize = %d", c.VocabSize())
	}
}

func TestFitEmptyCorpus(t *testing.T) {
	if _, err := Fit(NewCorpus(), Config{K: 2}); err == nil {
		t.Error("want error for empty corpus")
	}
}

func TestThetaPhiAreDistributions(t *testing.T) {
	c, _ := twoTopicCorpus(40, 1)
	m, err := Fit(c, Config{K: 3, Iters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for d, theta := range m.Theta {
		sum := 0.0
		for _, v := range theta {
			if v < 0 {
				t.Fatalf("negative theta in doc %d", d)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("theta[%d] sums to %g", d, sum)
		}
	}
	for k, phi := range m.Phi {
		sum := 0.0
		for _, v := range phi {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("phi[%d] sums to %g", k, sum)
		}
	}
}

func TestLDASeparatesDisjointTopics(t *testing.T) {
	c, truth := twoTopicCorpus(80, 2)
	m, err := Fit(c, Config{K: 2, Iters: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each document should be dominated (>90%) by a single topic, and the
	// dominant topic must agree with the ground-truth split up to label
	// permutation.
	assign := make([]int, len(m.Theta))
	for d, theta := range m.Theta {
		if theta[0] < 0.9 && theta[1] < 0.9 {
			t.Fatalf("doc %d not dominated by a topic: %v", d, theta)
		}
		if theta[1] > theta[0] {
			assign[d] = 1
		}
	}
	agree := 0
	for d := range assign {
		if assign[d] == truth[d] {
			agree++
		}
	}
	acc := float64(agree) / float64(len(assign))
	if acc < 0.5 {
		acc = 1 - acc // label permutation
	}
	if acc < 0.95 {
		t.Errorf("topic assignment accuracy %.3f, want >= 0.95", acc)
	}
}

func TestTopWordsMatchTopics(t *testing.T) {
	c, _ := twoTopicCorpus(80, 4)
	m, err := Fit(c, Config{K: 2, Iters: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	netWords := map[string]bool{"signal": true, "drop": true, "slow": true, "coverage": true, "outage": true}
	for k := 0; k < 2; k++ {
		net := 0.0
		for w, p := range m.Phi[k] {
			if netWords[c.vocab[w]] {
				net += p
			}
		}
		if net > 0.1 && net < 0.9 {
			t.Errorf("topic %d mixes vocabularies: %.2f of its mass on network words", k, net)
		}
	}
}

func TestFoldInMatchesTraining(t *testing.T) {
	c, _ := twoTopicCorpus(80, 6)
	m, err := Fit(c, Config{K: 2, Iters: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.FoldIn("signal drop slow coverage outage signal drop", 30)
	// Must be heavily one topic — the network one.
	if theta[0] < 0.85 && theta[1] < 0.85 {
		t.Errorf("fold-in theta not peaked: %v", theta)
	}
	sum := theta[0] + theta[1]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fold-in theta sums to %g", sum)
	}
}

func TestFoldInUnknownWordsUniform(t *testing.T) {
	c, _ := twoTopicCorpus(20, 8)
	m, err := Fit(c, Config{K: 2, Iters: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.FoldIn("completely unseen tokens only", 10)
	if math.Abs(theta[0]-0.5) > 1e-9 {
		t.Errorf("unknown-word fold-in = %v, want uniform", theta)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.K != 10 || cfg.Beta != 0.01 || cfg.Iters != 50 {
		t.Errorf("defaults = %+v", cfg)
	}
	if math.Abs(cfg.Alpha-0.1) > 1e-12 {
		t.Errorf("alpha default = %g, want 1/K = 0.1", cfg.Alpha)
	}
}

// refFit and refFoldIn are the oracle for Fit and FoldIn: the nested layout
// (mu[d][j][k], topic-major nw[k][w], map-keyed fold-in posteriors) with the
// same float operations in the same order.
func refFit(c *Corpus, cfg Config) (theta, phi [][]float64) {
	cfg = cfg.withDefaults()
	D, W, K := c.NumDocs(), c.VocabSize(), cfg.K
	rng := rand.New(rand.NewSource(cfg.Seed))
	mu, nd, nw, nk := make([][][]float64, D), make([][]float64, D), make([][]float64, K), make([]float64, K)
	for k := range nw {
		nw[k] = make([]float64, W)
	}
	for d, dd := range c.docs {
		mu[d], nd[d] = make([][]float64, len(dd.words)), make([]float64, K)
		for j, w := range dd.words {
			msg, total := make([]float64, K), 0.0
			for k := range msg {
				msg[k] = 0.5 + rng.Float64()
				total += msg[k]
			}
			for k := range msg {
				msg[k] /= total
				cm := dd.counts[j] * msg[k]
				nd[d][k], nw[k][w], nk[k] = nd[d][k]+cm, nw[k][w]+cm, nk[k]+cm
			}
			mu[d][j] = msg
		}
	}
	wBeta, newMsg := float64(W)*cfg.Beta, make([]float64, K)
	for iter := 0; iter < cfg.Iters; iter++ {
		for d, dd := range c.docs {
			for j, w := range dd.words {
				cnt, old, total := dd.counts[j], mu[d][j], 0.0
				for k := 0; k < K; k++ {
					ndk, nwk, nkk := max(nd[d][k]-cnt*old[k], 0), max(nw[k][w]-cnt*old[k], 0), max(nk[k]-cnt*old[k], 0)
					newMsg[k] = (ndk + cfg.Alpha) * (nwk + cfg.Beta) / (nkk + wBeta)
					total += newMsg[k]
				}
				for k := 0; k < K; k++ {
					nm := newMsg[k] / total
					delta := cnt * (nm - old[k])
					nd[d][k], nw[k][w], nk[k], old[k] = nd[d][k]+delta, nw[k][w]+delta, nk[k]+delta, nm
				}
			}
		}
	}
	for _, mass := range nd {
		theta = append(theta, distWithPrior(mass, cfg.Alpha))
	}
	for _, mass := range nw {
		phi = append(phi, distWithPrior(mass, cfg.Beta))
	}
	return theta, phi
}

// refFoldIn needs a document with at least one known word; FoldIn's answer
// for the rest is the uniform theta, which the test spells out itself.
func refFoldIn(m *Model, text string, iters int) []float64 {
	K, counts, post, words := m.cfg.K, map[int]float64{}, map[int][]float64{}, []int{}
	for _, tok := range strings.Fields(text) {
		if w, ok := m.vocabIndex[tok]; ok {
			if counts[w]++; counts[w] == 1 {
				words = append(words, w)
			}
		}
	}
	sort.Ints(words)
	nd, msg := make([]float64, K), make([]float64, K)
	for _, w := range words {
		post[w] = make([]float64, K)
		for k := range post[w] {
			post[w][k] = 1.0 / float64(K)
			nd[k] += counts[w] / float64(K)
		}
	}
	for it := 0; it < iters; it++ {
		for _, w := range words {
			cnt, old, total := counts[w], post[w], 0.0
			for k := 0; k < K; k++ {
				msg[k] = (max(nd[k]-cnt*old[k], 0) + m.cfg.Alpha) * m.Phi[k][w]
				total += msg[k]
			}
			for k := 0; k < K; k++ {
				nm := msg[k] / total
				nd[k] += cnt * (nm - old[k])
				old[k] = nm
			}
		}
	}
	return distWithPrior(nd, m.cfg.Alpha)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFitMatchesNestedReference pins the flat kernels to the oracle bit for
// bit: Theta, Phi and FoldIn over several corpus shapes.
func TestFitMatchesNestedReference(t *testing.T) {
	corpus := func(docs ...string) *Corpus {
		c := NewCorpus()
		for i, d := range docs {
			c.AddDoc(int64(i), d)
		}
		return c
	}
	two, _ := twoTopicCorpus(40, 1)
	for _, tc := range []struct {
		name string
		c    *Corpus
		cfg  Config
	}{
		{"two topics", two, Config{K: 3, Iters: 20, Seed: 1}},
		{"repeated words", corpus("a a a b", "b b c c c c", "a", "c a c a"), Config{K: 2, Iters: 15, Seed: 2}},
		{"empty documents", corpus("", "x y x", "", "y z"), Config{K: 4, Iters: 10, Seed: 3}},
		{"K=1", corpus("p q", "q q r", "r"), Config{K: 1, Iters: 5, Seed: 4}},
		{"defaults", two, Config{Seed: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Fit(tc.c, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			theta, phi := refFit(tc.c, tc.cfg)
			for d := range theta {
				if !bitsEqual(m.Theta[d], theta[d]) {
					t.Fatalf("theta[%d] = %v, reference %v", d, m.Theta[d], theta[d])
				}
			}
			if len(m.Phi) != len(phi) {
				t.Fatalf("%d Phi rows, reference %d", len(m.Phi), len(phi))
			}
			for k := range phi {
				if !bitsEqual(m.Phi[k], phi[k]) {
					t.Fatalf("phi[%d] = %v, reference %v", k, m.Phi[k], phi[k])
				}
			}
			uniform := make([]float64, m.K())
			for k := range uniform {
				uniform[k] = 1.0 / float64(m.K())
			}
			vocab := strings.Join(tc.c.vocab, " ")
			for _, text := range []string{"", "unseen only", vocab, vocab + " " + vocab, "a a a", "signal bill signal fee x"} {
				for _, iters := range []int{0, 7} {
					refIters := iters
					if iters == 0 {
						refIters = 20 // FoldIn's default
					}
					want := uniform
					for _, tok := range strings.Fields(text) {
						if _, known := m.vocabIndex[tok]; known {
							want = refFoldIn(m, text, refIters)
							break
						}
					}
					if got := m.FoldIn(text, iters); !bitsEqual(got, want) {
						t.Fatalf("FoldIn(%q, %d) = %v, reference %v", text, iters, got, want)
					}
				}
			}
		})
	}
}

// TestDecodeRejectsHostileModels: a stream the checksum vouches for can
// still describe a model Encode or FoldIn cannot handle; Decode turns each
// into codec.ErrCorrupt.
func TestDecodeRejectsHostileModels(t *testing.T) {
	stream := func(k int, vocab []string, phi ...[]float64) []byte {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf, "TEST")
		w.Uvarint(uint64(k))
		w.Float(0.1)
		w.Float(0.01)
		w.Uvarint(10)
		w.Int(1)
		w.Strs(vocab)
		w.Uvarint(uint64(len(phi)))
		for _, row := range phi {
			w.Floats(row)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"valid", stream(1, []string{"a", "b"}, []float64{0.5, 0.5}), true},
		{"duplicate vocabulary word", stream(1, []string{"a", "a"}, []float64{0.5, 0.5}), false},
		{"K=0", stream(0, nil), false},
		{"K=0 with vocabulary", stream(0, []string{"a"}), false},
		{"Phi rows != K", stream(2, []string{"a"}, []float64{1}), false},
		{"Phi row length != vocabulary", stream(1, []string{"a", "b"}, []float64{1}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd, err := codec.NewReaderBytes(tc.data, "TEST")
			if err != nil {
				t.Fatal(err)
			}
			m, err := Decode(rd)
			if tc.ok {
				if err != nil {
					t.Fatalf("valid model rejected: %v", err)
				}
				var buf bytes.Buffer
				m.Encode(codec.NewWriter(&buf, "TEST")) // must not panic
				if theta := m.FoldIn("a b b", 0); len(theta) != 1 || theta[0] != 1 {
					t.Fatalf("FoldIn on decoded model = %v", theta)
				}
				return
			}
			if !errors.Is(err, codec.ErrCorrupt) || m != nil {
				t.Fatalf("Decode = %v, %v; want codec.ErrCorrupt", m, err)
			}
		})
	}
}
