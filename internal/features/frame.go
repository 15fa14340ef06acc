// Package features implements the paper's feature-engineering layer
// (Section 4.1): it turns the raw warehouse tables of one observation window
// into the unified wide table — one feature vector per customer — covering
// the nine feature groups F1-F9 of Table 2.
//
// Group inventory (matching the paper's counts, 150 features total):
//
//	F1 baseline BSS features            70
//	F2 CS KPI/KQI features               9
//	F3 PS KPI/KQI + location features   25
//	F4 call-graph features               2  (PageRank + label propagation)
//	F5 message-graph features            2
//	F6 co-occurrence-graph features      2
//	F7 complaint topic features         10
//	F8 search-query topic features      10
//	F9 FM-selected second-order features 20
package features

import (
	"fmt"
	"slices"
	"strings"

	"telcochurn/internal/dataset"
)

// Group identifies one of the paper's feature groups.
type Group int

// The nine feature groups of Table 2.
const (
	F1Baseline Group = iota + 1
	F2CS
	F3PS
	F4CallGraph
	F5MessageGraph
	F6CooccurrenceGraph
	F7ComplaintTopics
	F8SearchTopics
	F9SecondOrder
)

// String returns the paper's group label.
func (g Group) String() string {
	switch g {
	case F1Baseline:
		return "F1"
	case F2CS:
		return "F2"
	case F3PS:
		return "F3"
	case F4CallGraph:
		return "F4"
	case F5MessageGraph:
		return "F5"
	case F6CooccurrenceGraph:
		return "F6"
	case F7ComplaintTopics:
		return "F7"
	case F8SearchTopics:
		return "F8"
	case F9SecondOrder:
		return "F9"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// AllGroups returns F1..F9 in order.
func AllGroups() []Group {
	return []Group{F1Baseline, F2CS, F3PS, F4CallGraph, F5MessageGraph,
		F6CooccurrenceGraph, F7ComplaintTopics, F8SearchTopics, F9SecondOrder}
}

// GroupSet is a set of feature groups as a bitmask: bit i-1 stands for
// group Fi. It serves as the configured-groups set of every build and, as
// Degradation, as the mask of groups assembled from imputed data.
type GroupSet uint16

// The group families by how they are built: per-customer aggregates, the
// three cross-customer graphs, per-customer topic mixtures.
const (
	BaseGroups  GroupSet = 1<<(F1Baseline-1) | 1<<(F2CS-1) | 1<<(F3PS-1)
	GraphGroups GroupSet = 1<<(F4CallGraph-1) | 1<<(F5MessageGraph-1) | 1<<(F6CooccurrenceGraph-1)
	TopicGroups GroupSet = 1<<(F7ComplaintTopics-1) | 1<<(F8SearchTopics-1)
)

// GroupSetOf returns the set holding the given groups.
func GroupSetOf(groups ...Group) GroupSet {
	var s GroupSet
	for _, g := range groups {
		s.Add(g)
	}
	return s
}

// Add puts a group into the set.
func (s *GroupSet) Add(g Group) { *s |= 1 << (g - 1) }

// Has reports whether the group is in the set.
func (s GroupSet) Has(g Group) bool { return s&(1<<(g-1)) != 0 }

// Empty reports a set with no groups (as a Degradation: a healthy build).
func (s GroupSet) Empty() bool { return s == 0 }

// Groups returns the set's groups in canonical order.
func (s GroupSet) Groups() []Group {
	var out []Group
	for _, g := range AllGroups() {
		if s.Has(g) {
			out = append(out, g)
		}
	}
	return out
}

// String renders the set as "none" or a comma-joined group list ("F3,F6").
func (s GroupSet) String() string {
	if s.Empty() {
		return "none"
	}
	var parts []string
	for _, g := range s.Groups() {
		parts = append(parts, g.String())
	}
	return strings.Join(parts, ",")
}

// Frame is a wide table under construction: rows are customers (fixed at
// creation), columns accumulate as feature groups are added.
type Frame struct {
	ids   []int64
	index map[int64]int
	names []string
	x     [][]float64
	group []Group // group of each column
}

// NewFrame creates a frame over the given customer universe. IDs are sorted
// and deduplicated.
func NewFrame(ids []int64) *Frame {
	out := slices.Clone(ids)
	slices.Sort(out)
	out = slices.Compact(out)
	f := &Frame{ids: out, index: make(map[int64]int, len(out)), x: make([][]float64, len(out))}
	for i, id := range out {
		f.index[id] = i
	}
	return f
}

// IDs returns the customer IDs in row order (shared slice).
func (f *Frame) IDs() []int64 { return f.ids }

// NumRows returns the number of customers.
func (f *Frame) NumRows() int { return len(f.ids) }

// NumColumns returns the number of features added so far.
func (f *Frame) NumColumns() int { return len(f.names) }

// Names returns the feature names in column order.
func (f *Frame) Names() []string { return append([]string(nil), f.names...) }

// Groups returns the group tag of every column.
func (f *Frame) Groups() []Group { return append([]Group(nil), f.group...) }

// AddColumn appends a feature column; customers absent from values get def.
// The frame builds add dense columns (AddDense); the benchmark harness
// (bench/layers.go) still calls this one.
func (f *Frame) AddColumn(g Group, name string, values map[int64]float64, def float64) {
	f.names = append(f.names, name)
	f.group = append(f.group, g)
	for i, id := range f.ids {
		v, ok := values[id]
		if !ok {
			v = def
		}
		f.x[i] = append(f.x[i], v)
	}
}

// AddDense appends a feature column given per-row values aligned with IDs.
func (f *Frame) AddDense(g Group, name string, values []float64) error {
	if len(values) != len(f.ids) {
		return fmt.Errorf("features: dense column %q has %d values, want %d", name, len(values), len(f.ids))
	}
	f.names = append(f.names, name)
	f.group = append(f.group, g)
	for i := range f.ids {
		f.x[i] = append(f.x[i], values[i])
	}
	return nil
}

// Row returns customer id's feature vector (shared slice) and whether the
// customer is in the frame.
func (f *Frame) Row(id int64) ([]float64, bool) {
	i, ok := f.index[id]
	if !ok {
		return nil, false
	}
	return f.x[i], true
}

// SelectGroups returns a new frame containing only columns whose group is in
// keep (row universe shared).
func (f *Frame) SelectGroups(keep ...Group) *Frame {
	keepSet := GroupSetOf(keep...)
	var cols []int
	for j, g := range f.group {
		if keepSet.Has(g) {
			cols = append(cols, j)
		}
	}
	nf := &Frame{ids: f.ids, index: f.index, x: make([][]float64, len(f.ids))}
	for _, j := range cols {
		nf.names = append(nf.names, f.names[j])
		nf.group = append(nf.group, f.group[j])
	}
	for i := range f.x {
		row := make([]float64, 0, len(cols))
		for _, j := range cols {
			row = append(row, f.x[i][j])
		}
		nf.x[i] = row
	}
	return nf
}

// ToDataset converts the frame into a labeled dataset using the given label
// map; customers without a label entry get def (use -1 and filter upstream
// if labels must be complete).
func (f *Frame) ToDataset(labels map[int64]int, def int) *dataset.Dataset {
	d := dataset.New(append([]string(nil), f.names...))
	d.X = make([][]float64, len(f.ids))
	d.Y = make([]int, len(f.ids))
	for i, id := range f.ids {
		d.X[i] = f.x[i]
		y, ok := labels[id]
		if !ok {
			y = def
		}
		d.Y[i] = y
	}
	return d
}
