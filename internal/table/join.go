package table

import "fmt"

// JoinKind selects the join semantics. Only InnerJoin remains; the type goes
// with HashJoin (see AggFunc).
type JoinKind int

// InnerJoin keeps only rows with a match on both sides.
const InnerJoin JoinKind = 0

// HashJoin inner-joins left and right on equality of the named Int64 key
// column, which must exist on both sides (e.g. IMSI, the paper's universal
// join key). Any kind other than InnerJoin is an error. The result schema is
// left's fields followed by right's fields minus the key. Right-side columns
// whose names collide with left-side names are suffixed "_r".
//
// The right side is hashed; rows stream from the left, so put the smaller
// table on the right. Right-side duplicates multiply, as in SQL.
//
// One pass over the left keys builds leftRow/rightRow gather-index arrays,
// then every output column is emitted with a single typed bulk gather into
// an exactly-sized array — no per-cell appends.
func HashJoin(left, right *Table, key string, kind JoinKind) (*Table, error) {
	if kind != InnerJoin {
		return nil, fmt.Errorf("table: unsupported join kind %d", int(kind))
	}
	lk := left.Schema.Index(key)
	rk := right.Schema.Index(key)
	if lk < 0 || rk < 0 {
		return nil, fmt.Errorf("table: join key %q missing (left=%v right=%v)", key, lk >= 0, rk >= 0)
	}
	if left.Schema.Fields[lk].Type != Int64 || right.Schema.Fields[rk].Type != Int64 {
		return nil, fmt.Errorf("table: join key %q must be BIGINT on both sides", key)
	}

	// Output schema: all left fields, then right fields except the key.
	fields := append([]Field(nil), left.Schema.Fields...)
	rightOut := make([]int, 0, right.Schema.Len()-1) // right column indices emitted
	for i, f := range right.Schema.Fields {
		if i == rk {
			continue
		}
		name := f.Name
		if left.Schema.Has(name) {
			name += "_r"
		}
		fields = append(fields, Field{Name: name, Type: f.Type})
		rightOut = append(rightOut, i)
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out := NewTable(schema)

	// Index the right side as dense groups: key → group id, plus a stable
	// counting-sort scatter so group g's rows are perm[start[g]:start[g+1]]
	// in original row order. Two flat arrays and one int32-valued map — no
	// per-key match slices growing inside the hash table.
	rightKeys := right.Cols[rk].Ints
	ids := make(map[int64]int32, len(rightKeys))
	gid := make([]int32, len(rightKeys))
	ng := int32(0)
	for i, k := range rightKeys {
		g, ok := ids[k]
		if !ok {
			g = ng
			ids[k] = g
			ng++
		}
		gid[i] = g
	}
	start := make([]int32, ng+1)
	for _, g := range gid {
		start[g+1]++
	}
	for g := int32(0); g < ng; g++ {
		start[g+1] += start[g]
	}
	perm := make([]int32, len(rightKeys))
	cursor := append([]int32(nil), start[:ng]...)
	for i, g := range gid {
		perm[cursor[g]] = int32(i)
		cursor[g]++
	}

	leftKeys := left.Cols[lk].Ints

	// Pre-count the output cardinality (sum of match multiplicities) so the
	// gather indices and every output column allocate exactly once. Each
	// left key is probed exactly once; the resolved group id (-1 = miss) is
	// cached for the build pass.
	lg := make([]int32, len(leftKeys))
	nOut := 0
	for i, k := range leftKeys {
		if g, ok := ids[k]; ok {
			lg[i] = g
			nOut += int(start[g+1] - start[g])
		} else {
			lg[i] = -1
		}
	}

	// Gather-index build: for each output row, its source row on both sides.
	leftRow := make([]int32, 0, nOut)
	rightRow := make([]int32, 0, nOut)
	for i, g := range lg {
		if g < 0 {
			continue
		}
		for _, m := range perm[start[g]:start[g+1]] {
			leftRow = append(leftRow, int32(i))
			rightRow = append(rightRow, m)
		}
	}

	nl := left.Schema.Len()
	for c := range left.Cols {
		gatherInto(out.Cols[c], left.Cols[c], leftRow)
	}
	for j, rc := range rightOut {
		gatherInto(out.Cols[nl+j], right.Cols[rc], rightRow)
	}
	return out, nil
}
