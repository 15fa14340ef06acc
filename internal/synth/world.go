package synth

import (
	"math/rand"

	"telcochurn/internal/table"
)

// phase is the customer lifecycle state machine. The two-step churn script
// (signal month, then churn month) is what gives the paper's timeline its
// shape: features observed in month N-1 strongly predict the churn event in
// month N (Figure 6), while features from earlier months carry only the weak
// latent signals (Figure 8).
type phase int

const (
	phaseActive phase = iota
	// phaseEarly: a slow-goodbye precursor some churners go through two
	// months before the churn event — usage dips mildly and competitor
	// searches tick up while top-ups continue. This is what keeps
	// earlier-horizon prediction (Figure 8) above chance without making it
	// easy.
	phaseEarly
	// phaseSignal: the customer has decided to churn. Usage halves, top-ups
	// stop, competitor searches spike. This is the month whose features the
	// classifier sees for a churner labeled next month.
	phaseSignal
	// phaseChurn: usage collapses, the customer enters the recharge period
	// and never recharges, so the 15-day rule labels them a churner. They
	// leave the population at month end.
	phaseChurn
)

type cell struct {
	id, lac  int
	lat, lon float64
	// Static quality level of the cell (0 good .. 1 bad).
	baseQuality float64
	// shock is the current month's quality degradation in [0,1]; follows an
	// AR(1) process so degradations persist for a few months, creating the
	// weak early-warning signal in CS/PS KPIs.
	shock                                float64
	baseTP, baseMOS, baseDrop, baseDelay float64
}

type customer struct {
	id        int64
	community int
	homeCell  int
	altCells  []int
	neighbors []int64 // call partners; mostly within community
	msgPeers  []int64 // message partners; sparse subset of neighbors

	// Static demographics.
	age, gender, psptType, isShanghai, townID, saleID int
	productID, productKind                            int
	productPrice, creditValue                         float64
	innetMonths                                       int

	// Latent behavioral traits (never observable directly).
	loyalty       float64
	priceSens     float64
	voiceAppetite float64
	dataAppetite  float64
	smsAppetite   float64
	complaintProp float64
	sociality     float64 // scales degree; high-degree customers churn less
	qualityBias   float64 // persistent personal coverage handicap (handset, home)

	// Evolving state.
	dissat      float64
	balance     float64
	phase       phase
	churnedNow  bool // labeled churner this month (incl. late-recharge noise)
	bestOffer   int
	retainBase  float64
	prevCharge  float64
	abruptChurn bool // skipped the signal month (no early signal)
}

// World is the running simulation.
type World struct {
	cfg   Config
	rng   *rand.Rand
	cells []*cell

	customers map[int64]*customer
	nextID    int64
	month     int // next month to simulate (1-based)

	communityShock map[int]float64 // per-community churn shock this month
	numCommunities int

	churnedLast map[int64]bool // customers labeled churners in prior month
}

// MonthData bundles everything the simulator emits for one month.
type MonthData struct {
	Month      int
	Calls      *table.Table
	Messages   *table.Table
	Recharges  *table.Table
	Billing    *table.Table
	Customers  *table.Table
	Complaints *table.Table
	Web        *table.Table
	Search     *table.Table
	Locations  *table.Table
	Truth      *table.Table
}

// NewWorld creates a world with the given configuration (zero fields take
// defaults).
func NewWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		customers:      make(map[int64]*customer, cfg.Customers),
		nextID:         1000000,
		month:          1,
		communityShock: make(map[int]float64),
		churnedLast:    make(map[int64]bool),
	}
	w.buildCells()
	w.numCommunities = cfg.Customers/cfg.CommunitySize + 1
	for i := 0; i < cfg.Customers; i++ {
		c := w.newCustomer(w.rng.Intn(w.numCommunities))
		// Seasoned population: tenure spread out, skewed long for loyal
		// customers (the survivorship the steady state converges to).
		c.innetMonths = w.rng.Intn(24) + int(36*c.loyalty*w.rng.Float64())
		w.customers[c.id] = c
	}
	w.wireNeighbors()
	// Burn in so the first reported month is already in the stationary
	// regime (steady churn rate, warmed-up dissatisfaction and shocks).
	for i := 0; i < cfg.BurnInMonths; i++ {
		w.SimulateMonth()
	}
	w.month = 1
	return w
}

func (w *World) buildCells() {
	w.cells = make([]*cell, w.cfg.Cells)
	for i := range w.cells {
		quality := w.rng.Float64() * 0.35 // most cells decent, some poor
		w.cells[i] = &cell{
			id:          i,
			lac:         i / 8,
			lat:         31.0 + w.rng.Float64()*0.8,
			lon:         121.0 + w.rng.Float64()*0.9,
			baseQuality: quality,
			baseTP:      2200 + w.rng.Float64()*2600, // kbps
			baseMOS:     3.6 + w.rng.Float64()*0.9,
			baseDrop:    0.004 + 0.02*quality,
			baseDelay:   0.9 + 1.4*quality,
		}
	}
}

func (w *World) newCustomer(community int) *customer {
	r := w.rng
	home := (community * 3) % len(w.cells) // community members share a home cell
	alt := []int{r.Intn(len(w.cells)), r.Intn(len(w.cells))}
	dataApp := clamp(0.15+r.ExpFloat64()*0.6, 0.05, 3.0)
	voiceApp := clamp(0.2+r.ExpFloat64()*0.55, 0.05, 3.0)
	loyalty := clamp(r.NormFloat64()*0.2+0.55, 0, 1)
	priceSens := clamp(r.NormFloat64()*0.22+0.5, 0, 1)
	// Price-sensitive customers pick cheaper products, making the latent
	// trait partially observable through product_price — one of the
	// persistent baseline signals that keeps earlier-horizon prediction
	// (Figure 8) above chance.
	prices := []float64{30, 50, 100}
	priceIdx := r.Intn(3)
	if priceSens > 0.65 {
		priceIdx = 0
	} else if priceSens < 0.35 && r.Float64() < 0.6 {
		priceIdx = 2
	}
	c := &customer{
		id:            w.nextID,
		community:     community,
		homeCell:      home,
		altCells:      alt,
		age:           16 + r.Intn(60),
		gender:        r.Intn(2),
		psptType:      r.Intn(3),
		isShanghai:    boolToInt(r.Float64() < 0.7),
		townID:        r.Intn(20),
		saleID:        r.Intn(8),
		productID:     r.Intn(12),
		productKind:   r.Intn(3),
		productPrice:  prices[priceIdx],
		creditValue:   40 + r.Float64()*60,
		innetMonths:   0,
		loyalty:       loyalty,
		priceSens:     priceSens,
		voiceAppetite: voiceApp,
		dataAppetite:  dataApp,
		smsAppetite:   clamp(0.1+r.ExpFloat64()*0.5, 0.02, 3.0),
		complaintProp: clamp(0.15+r.ExpFloat64()*0.3, 0, 1.2),
		sociality:     clamp(0.3+r.ExpFloat64()*0.45, 0.1, 3.0),
		qualityBias:   personalQualityBias(r),
		dissat:        clamp(r.Float64()*0.15, 0, 1),
		balance:       20 + r.Float64()*60,
		phase:         phaseActive,
	}
	w.nextID++
	c.bestOffer = w.deriveBestOffer(c)
	c.retainBase = clamp(0.95-0.6*c.dissat-0.35*(1-c.loyalty)+0.25*(r.Float64()-0.5), 0.05, 0.95)
	return c
}

// deriveBestOffer maps latent appetites to the offer the customer would
// accept most readily. Because appetites drive observable usage, a
// multi-class classifier over usage features can learn this mapping — the
// paper's Section 4.3 retention matching.
func (w *World) deriveBestOffer(c *customer) int {
	type cand struct {
		offer int
		score float64
	}
	cands := []cand{
		{OfferFlux500MB, c.dataAppetite*1.1 + 0.1*w.rng.NormFloat64()},
		{OfferVoice200Min, c.voiceAppetite*1.0 + 0.1*w.rng.NormFloat64()},
		{OfferCashback100, c.priceSens*1.3 + 0.15*w.rng.NormFloat64()},
		{OfferCashback50, 0.75 + 0.15*w.rng.NormFloat64()},
	}
	best := cands[0]
	for _, cd := range cands[1:] {
		if cd.score > best.score {
			best = cd
		}
	}
	return best.offer
}

// wireNeighbors builds the social graph: call partners concentrated within
// communities, degree scaled by sociality (hubs exist).
func (w *World) wireNeighbors() {
	byCommunity := make(map[int][]int64)
	var all []int64
	for id, c := range w.customers {
		byCommunity[c.community] = append(byCommunity[c.community], id)
		all = append(all, id)
	}
	// Map iteration order is random; sort for determinism.
	sortInt64s(all)
	for _, ids := range byCommunity {
		sortInt64s(ids)
	}
	for _, id := range all {
		c := w.customers[id]
		if len(c.neighbors) > 0 {
			continue
		}
		w.assignNeighbors(c, byCommunity[c.community], all)
	}
}

func (w *World) assignNeighbors(c *customer, community, all []int64) {
	want := 2 + w.poisson(float64(w.cfg.NeighborsPerCustomer)*c.sociality)
	seen := map[int64]bool{c.id: true}
	for len(c.neighbors) < want {
		var pick int64
		if w.rng.Float64() < 0.8 && len(community) > 1 {
			pick = community[w.rng.Intn(len(community))]
		} else {
			pick = all[w.rng.Intn(len(all))]
		}
		if seen[pick] {
			if len(community) <= len(seen) {
				break
			}
			continue
		}
		seen[pick] = true
		c.neighbors = append(c.neighbors, pick)
	}
	// Message partners: a sparse subset (SMS is moribund; see Config docs).
	for _, n := range c.neighbors {
		if w.rng.Float64() < 0.3 {
			c.msgPeers = append(c.msgPeers, n)
		}
	}
}

// Month returns the next month number that SimulateMonth will produce.
func (w *World) Month() int { return w.month }

// Config returns the effective (defaulted) configuration.
func (w *World) Config() Config { return w.cfg }
