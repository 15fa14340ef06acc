package features

import (
	"math/rand"
	"reflect"
	"testing"
)

// liveKeeps returns the predicates a run of builds reduces the live fold
// under: each admits the universe (the even ids, so outsiders interleave
// it) and its own set of odd outsiders, the previous churners of a truth
// that changes between builds. The run is A, B, A: a reduce that stored
// B's filter in the fold would make the second A differ from the first.
func liveKeeps(rng *rand.Rand) []func(int64) bool {
	set := func() func(int64) bool {
		churned := map[int64]bool{}
		for id := int64(1); id < 80; id += 2 {
			if rng.Intn(2) == 0 {
				churned[id] = true
			}
		}
		return func(id int64) bool { return id%2 == 0 || churned[id] }
	}
	a, b := set(), set()
	return []func(int64) bool{a, b, a}
}

// TestLiveCubesMatchFilteredFold holds the live state's pruned
// co-occurrence fold to the fold a filtering Feed makes, which adds only
// the sightings its customers admit: crowded cubes (far over the cap, so
// the pruning drops members) shared by universe customers and outsiders,
// reduced after every batch of sightings under predicates that admit the
// universe and a changing set of outsiders. A cube no admitted customer
// was sighted in is empty in the live reduce and absent from the Feed's,
// and adds no edge either way, so the two are compared cube by cube over
// the non-empty ones.
func TestLiveCubesMatchFilteredFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	live := &liveCubes{index: newKeyIndex(hashCube, 0), universe: func(id int64) bool { return id%2 == 0 }}
	type sighting struct {
		k  cube
		id int64
	}
	var all []sighting
	members := func(s cubeSet) map[cube][]int64 {
		m := map[cube][]int64{}
		for c, k := range s.cubes {
			if ids := s.members(c); len(ids) > 0 {
				m[k] = ids
			}
		}
		return m
	}
	for batch := range 8 {
		for range 400 {
			k := cube{abs: int64(rng.Intn(3)), slot: 0, cell: int64(rng.Intn(2))}
			id := 2 * int64(rng.Intn(90))
			if rng.Intn(4) == 0 {
				id = 2*int64(rng.Intn(40)) + 1
			}
			live.add(k, id)
			all = append(all, sighting{k, id})
		}
		for pass, keep := range liveKeeps(rng) {
			fed := newCubeFold(0)
			for _, s := range all {
				if keep(s.id) {
					fed.add(s.k, s.id)
				}
			}
			if got, want := members(live.reduce(keep)), members(fed.reduce(1)); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d, reduce %d: live cubes\n%v\nwant\n%v", batch, pass, got, want)
			}
		}
	}
}

// TestLiveEdgeSumsMatchFilteredFold holds keptSums over the live call or
// message fold — every observation, whoever the peer — to the fold a
// filtering Feed makes, which observes only the rows whose peer its
// customers admit: after every batch of observations, under predicates A,
// B, A, so a reduce that wrote its filter back into the fold fails on the
// second A. Weights are fractional, so a sum that adds its observations in
// another order shows in its bits.
func TestLiveEdgeSumsMatchFilteredFold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type obs struct {
		from, to int64
		w        float64
	}
	live := newEdgeFold(nil)
	var all []obs
	for batch := range 6 {
		for range 300 {
			o := obs{from: int64(rng.Intn(100)), to: int64(rng.Intn(100)), w: rng.Float64() * 90}
			if o.from == o.to {
				continue
			}
			live.observe(o.from, o.to, o.w)
			all = append(all, o)
		}
		for pass, keep := range liveKeeps(rng) {
			fed := newEdgeFold(nil)
			for _, o := range all {
				if keep(o.to) {
					fed.observe(o.from, o.to, o.w)
				}
			}
			if got, want := keptSums(live, keep), fed.reduce(); !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d, reduce %d: kept sums\n%v\nwant\n%v", batch, pass, got, want)
			}
		}
	}
}
