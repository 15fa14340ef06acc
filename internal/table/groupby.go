package table

import (
	"fmt"
	"sort"
)

// AggFunc enumerates the aggregation functions GroupBy supports.
//
// GroupBy, HashJoin and SortByInt are no longer called by any production
// path — the wide-table build folds each raw table in one pass (DESIGN §9).
// They remain only because the repository benchmark's table.groupby_ms /
// table.hashjoin_ms probes and its truth sort still name them; they go
// together with those benchmark rows, as do Agg, AggFunc and JoinKind.
type AggFunc int

const (
	// Sum totals the column (Int64 or Float64).
	Sum AggFunc = iota
	// Count counts rows in the group; the source column is ignored.
	Count
)

// Agg is one aggregation: apply Func to column Col, emit it as column As.
type Agg struct {
	Col  string
	Func AggFunc
	As   string
}

// GroupBy groups t by the Int64 key column and computes the aggregations.
// The result has the key column first, then one Float64 column per Agg,
// ordered by ascending key for determinism.
//
// Execution is one dense group-id pass over the key column (already-sorted
// keys skip the hash map entirely), then one typed columnar pass per
// aggregate into exactly-sized output arrays. Sums accumulate per group in
// row order, so the result is cell-for-cell identical to a row-at-a-time
// aggregation of the same rows.
func GroupBy(t *Table, key string, aggs ...Agg) (*Table, error) {
	ki := t.Schema.Index(key)
	if ki < 0 {
		return nil, fmt.Errorf("table: group-by unknown key %q", key)
	}
	if t.Schema.Fields[ki].Type != Int64 {
		return nil, fmt.Errorf("table: group-by key %q must be BIGINT", key)
	}

	srcs := make([]*Column, len(aggs)) // nil for Count
	fields := []Field{{Name: key, Type: Int64}}
	for i, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("table: aggregation %d has empty output name", i)
		}
		switch a.Func {
		case Count:
		case Sum:
			ci := t.Schema.Index(a.Col)
			if ci < 0 {
				return nil, fmt.Errorf("table: aggregation on unknown column %q", a.Col)
			}
			if t.Cols[ci].Type == String {
				return nil, fmt.Errorf("table: sum on string column %q", a.Col)
			}
			srcs[i] = t.Cols[ci]
		default:
			return nil, fmt.Errorf("table: unsupported aggregation %d", int(a.Func))
		}
		fields = append(fields, Field{Name: a.As, Type: Float64})
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}

	gi := buildGroupIndex(t.Cols[ki].Ints)
	out := NewTable(schema)
	out.Cols[0].Ints = gi.keys
	ng := len(gi.keys)
	for ai, src := range srcs {
		vals := make([]float64, ng)
		for g := range vals {
			lo, hi := gi.start[g], gi.start[g+1]
			switch {
			case src == nil:
				vals[g] = float64(hi - lo)
			case src.Type == Int64:
				vals[g] = sumRange(src.Ints, &gi, lo, hi)
			default:
				vals[g] = sumRange(src.Floats, &gi, lo, hi)
			}
		}
		out.Cols[ai+1].Floats = vals
	}
	return out, nil
}

// groupIndex is the dense group assignment computed once per GroupBy call
// and shared by every aggregation pass: the distinct keys in ascending
// order, plus the row indices regrouped key by key with the original row
// order preserved inside each group. Per-group row order matching the input
// is what keeps float sums bit-identical to a row-at-a-time aggregation.
type groupIndex struct {
	keys  []int64 // distinct key values, ascending
	start []int32 // group g owns rows perm[start[g]:start[g+1]]; len(keys)+1 entries
	perm  []int32 // row indices grouped by key; nil = identity (sorted input)
}

// buildGroupIndex assigns dense group ids over the key column. Already-sorted
// keys — the common case for monthly per-IMSI tables — skip the hash map and
// the permutation array.
func buildGroupIndex(keys []int64) groupIndex {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return hashIndex(keys)
		}
	}
	var gi groupIndex
	for j, k := range keys {
		if j == 0 || k != keys[j-1] {
			gi.keys = append(gi.keys, k)
			gi.start = append(gi.start, int32(j))
		}
	}
	gi.start = append(gi.start, int32(len(keys)))
	return gi
}

// hashIndex is the general path: first-occurrence dense ids via one hash
// pass, an ascending-key remap over the (few) distinct keys, then a counting
// scatter that regroups the rows — no per-group slices, no resizing.
func hashIndex(keys []int64) groupIndex {
	ids := make(map[int64]int32, 64)
	gid := make([]int32, len(keys))
	var first []int64 // key per first-occurrence id
	for j, k := range keys {
		id, ok := ids[k]
		if !ok {
			id = int32(len(first))
			ids[k] = id
			first = append(first, k)
		}
		gid[j] = id
	}
	ng := len(first)

	// Remap first-occurrence ids to ascending-key order.
	byKey := make([]int32, ng)
	for i := range byKey {
		byKey[i] = int32(i)
	}
	sort.Slice(byKey, func(a, b int) bool { return first[byKey[a]] < first[byKey[b]] })
	remap := make([]int32, ng)
	keysAsc := make([]int64, ng)
	for newID, oldID := range byKey {
		remap[oldID] = int32(newID)
		keysAsc[newID] = first[oldID]
	}

	// Count group sizes, prefix-sum into offsets, then scatter the rows
	// stably (input order within each group is preserved).
	start := make([]int32, ng+1)
	for _, id := range gid {
		start[remap[id]+1]++
	}
	for g := 0; g < ng; g++ {
		start[g+1] += start[g]
	}
	cursor := append([]int32(nil), start[:ng]...)
	perm := make([]int32, len(keys))
	for j, id := range gid {
		g := remap[id]
		perm[cursor[g]] = int32(j)
		cursor[g]++
	}
	return groupIndex{keys: keysAsc, start: start, perm: perm}
}

// sumRange accumulates one group's values in row order — the same addition
// order as a row-at-a-time scan of the group. Int64 values are converted,
// then added, matching Column.Float.
func sumRange[T int64 | float64](vals []T, gi *groupIndex, lo, hi int32) float64 {
	s := 0.0
	if gi.perm == nil {
		for r := lo; r < hi; r++ {
			s += float64(vals[r])
		}
		return s
	}
	for _, r := range gi.perm[lo:hi] {
		s += float64(vals[r])
	}
	return s
}

// SortByInt returns a new table sorted ascending by the named Int64 column
// (stable, so prior order breaks ties deterministically).
func SortByInt(t *Table, key string) (*Table, error) {
	ki := t.Schema.Index(key)
	if ki < 0 {
		return nil, fmt.Errorf("table: sort by unknown column %q", key)
	}
	if t.Schema.Fields[ki].Type != Int64 {
		return nil, fmt.Errorf("table: sort key %q must be BIGINT", key)
	}
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	keys := t.Cols[ki].Ints
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return t.Take(idx), nil
}
