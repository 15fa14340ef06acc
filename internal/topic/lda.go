// Package topic implements latent Dirichlet allocation trained by the
// synchronous belief-propagation updates of Zeng et al. (the paper's
// Section 4.1.3 choice), producing the compact K-dimensional document-topic
// features θ the wide table uses for complaint and search texts (F7, F8).
package topic

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// Corpus is a bag-of-words corpus over an integer-indexed vocabulary.
type Corpus struct {
	vocab []string
	index map[string]int
	docs  []doc
}

type doc struct {
	words  []int // vocabulary indices
	counts []float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{index: make(map[string]int)}
}

// AddDoc adds a document (e.g. one customer-month of search text); text is
// whitespace-tokenized. Documents keep insertion order, the order of the
// fitted Theta rows. The corpus does not keep id: repeated AddDoc calls with
// the same ID create separate documents — callers should aggregate first.
func (c *Corpus) AddDoc(id int64, text string) {
	tokens := strings.Fields(text)
	counts := make(map[int]float64)
	for _, tok := range tokens {
		w, ok := c.index[tok]
		if !ok {
			w = len(c.vocab)
			c.index[tok] = w
			c.vocab = append(c.vocab, tok)
		}
		counts[w]++
	}
	d := doc{}
	words := make([]int, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Ints(words)
	for _, w := range words {
		d.words = append(d.words, w)
		d.counts = append(d.counts, counts[w])
	}
	c.docs = append(c.docs, d)
}

// NumDocs returns the document count.
func (c *Corpus) NumDocs() int { return len(c.docs) }

// VocabSize returns the vocabulary size.
func (c *Corpus) VocabSize() int { return len(c.vocab) }

// Config holds LDA hyperparameters. The paper uses K=10 topics with fixed
// symmetric Dirichlet priors.
type Config struct {
	// K is the topic count (paper: 10).
	K int
	// Alpha is the symmetric document-topic prior (default 1/K — customer
	// documents are short, so a sparse prior keeps topic features peaked;
	// the classic 50/K would flatten a 20-word document to near-uniform).
	Alpha float64
	// Beta is the symmetric topic-word prior (default 0.01).
	Beta float64
	// Iters is the number of BP sweeps (default 50).
	Iters int
	// Seed initializes the messages.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 10
	}
	if c.Alpha == 0 {
		c.Alpha = 1.0 / float64(c.K)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iters == 0 {
		c.Iters = 50
	}
	return c
}

// Model is a trained LDA model.
type Model struct {
	cfg Config
	// Theta[d][k] is the document-topic distribution (the feature vector).
	Theta [][]float64
	// Phi[k][w] is the topic-word distribution.
	Phi [][]float64
	// phiT[w*K+k] = Phi[k][w]: the word-major copy FoldIn reads, so one
	// word's K topics are contiguous. Fit and Decode build it before the
	// model is shared; FoldIn only reads it, so concurrent fold-ins are safe.
	phiT       []float64
	vocabIndex map[string]int
}

// Fit runs synchronous belief propagation (CVB0-style) on the corpus,
// maximizing the posterior of Eq. (2).
func Fit(c *Corpus, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	D, W, K := c.NumDocs(), c.VocabSize(), cfg.K
	if D == 0 || W == 0 {
		return nil, errors.New("topic: empty corpus")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The state lives in flat slices, each a run of K per entry: the
	// messages of (doc d, word j) at mu[(off[d]+j)*K:] in sweep order, the
	// per-doc topic mass at nd[d*K:] and the per-word topic mass at nw[w*K:]
	// (word-major, so an update touches one contiguous run per slice). Every
	// value sees the same float operations in the same order as a nested
	// mu[d][j][k] / nw[k][w] layout would give it.
	off := make([]int, D+1)
	for d := range c.docs {
		off[d+1] = off[d] + len(c.docs[d].words)
	}
	mu := make([]float64, off[D]*K)
	nd := make([]float64, D*K)
	nw := make([]float64, W*K)
	nk := make([]float64, K)
	for d := range c.docs {
		dd := &c.docs[d]
		ndd := nd[d*K : (d+1)*K]
		for j, w := range dd.words {
			msg := mu[(off[d]+j)*K : (off[d]+j+1)*K]
			total := 0.0
			for k := range msg {
				msg[k] = 0.5 + float64(rng.Float64())
				total += msg[k]
			}
			for k := range msg {
				msg[k] /= total
			}
			cnt := dd.counts[j]
			nww := nw[w*K : (w+1)*K]
			for k := range msg {
				ndd[k] += float64(cnt * msg[k])
				nww[k] += float64(cnt * msg[k])
				nk[k] += float64(cnt * msg[k])
			}
		}
	}

	alpha, beta := cfg.Alpha, cfg.Beta
	wBeta := float64(float64(W) * beta)
	newMsg := make([]float64, K)
	for iter := 0; iter < cfg.Iters; iter++ {
		for d := range c.docs {
			dd := &c.docs[d]
			ndd := nd[d*K : (d+1)*K]
			for j, w := range dd.words {
				cnt := dd.counts[j]
				old := mu[(off[d]+j)*K : (off[d]+j+1)*K]
				nww := nw[w*K : (w+1)*K]
				// Exclude this entry's own mass (the "-wd" terms).
				total := 0.0
				for k := 0; k < K; k++ {
					ndk := ndd[k] - float64(cnt*old[k])
					nwk := nww[k] - float64(cnt*old[k])
					nkk := nk[k] - float64(cnt*old[k])
					if ndk < 0 {
						ndk = 0
					}
					if nwk < 0 {
						nwk = 0
					}
					if nkk < 0 {
						nkk = 0
					}
					v := (ndk + alpha) * (nwk + beta) / (nkk + wBeta)
					newMsg[k] = v
					total += v
				}
				for k := 0; k < K; k++ {
					nm := newMsg[k] / total
					delta := float64(cnt * (nm - old[k]))
					ndd[k] += delta
					nww[k] += delta
					nk[k] += delta
					old[k] = nm
				}
			}
		}
	}

	m := &Model{cfg: cfg, vocabIndex: c.index}
	m.Theta = make([][]float64, D)
	for d := range c.docs {
		m.Theta[d] = distWithPrior(nd[d*K:(d+1)*K], alpha)
	}
	m.Phi = make([][]float64, K)
	col := make([]float64, W)
	for k := 0; k < K; k++ {
		for w := range col {
			col[w] = nw[w*K+k]
		}
		m.Phi[k] = distWithPrior(col, beta)
	}
	m.transposePhi()
	return m, nil
}

// transposePhi builds the word-major copy of Phi that FoldIn reads.
func (m *Model) transposePhi() {
	K := len(m.Phi)
	W := 0
	if K > 0 {
		W = len(m.Phi[0])
	}
	m.phiT = make([]float64, W*K)
	for k, row := range m.Phi {
		for w, p := range row {
			m.phiT[w*K+k] = p
		}
	}
}

func distWithPrior(mass []float64, prior float64) []float64 {
	out := make([]float64, len(mass))
	total := 0.0
	for _, v := range mass {
		total += v + prior
	}
	for i, v := range mass {
		out[i] = (v + prior) / total
	}
	return out
}

// FoldIn infers the topic distribution θ for an unseen document given the
// trained Phi (word distributions fixed), used to featurize test-month
// customers without refitting. The document's known words are sorted and
// run-length counted, so the updates visit distinct words in ascending
// vocabulary order with their multiplicities.
func (m *Model) FoldIn(text string, iters int) []float64 {
	if iters <= 0 {
		iters = 20
	}
	K := m.cfg.K
	var ids []int
	for _, tok := range strings.Fields(text) {
		if w, ok := m.vocabIndex[tok]; ok {
			ids = append(ids, w)
		}
	}
	if len(ids) == 0 {
		theta := make([]float64, K)
		for k := range theta {
			theta[k] = 1.0 / float64(K)
		}
		return theta
	}
	slices.Sort(ids)
	// Compact ids in place into the distinct words, counting each run.
	words, counts := ids[:0], make([]float64, 0, len(ids))
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		words = append(words, ids[i])
		counts = append(counts, float64(j-i))
		i = j
	}

	alpha := m.cfg.Alpha
	nd := make([]float64, K)
	msg := make([]float64, K)
	post := make([]float64, len(words)*K) // post[i*K+k]: word i's topic posterior
	for i := range words {
		p := post[i*K : (i+1)*K]
		for k := range p {
			p[k] = 1.0 / float64(K)
			nd[k] += counts[i] / float64(K)
		}
	}
	for it := 0; it < iters; it++ {
		for i, w := range words {
			cnt := counts[i]
			old := post[i*K : (i+1)*K]
			phi := m.phiT[w*K : (w+1)*K]
			total := 0.0
			for k := 0; k < K; k++ {
				ndk := nd[k] - float64(cnt*old[k])
				if ndk < 0 {
					ndk = 0
				}
				v := float64((ndk + alpha) * phi[k])
				msg[k] = v
				total += v
			}
			for k := 0; k < K; k++ {
				nm := msg[k] / total
				nd[k] += float64(cnt * (nm - old[k]))
				old[k] = nm
			}
		}
	}
	return distWithPrior(nd, alpha)
}

// K returns the trained topic count.
func (m *Model) K() int { return m.cfg.K }
