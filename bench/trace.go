package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start and end in nanoseconds
// since the tracer was created, and the index of the span that caused it
// (-1 for a root). All spans of a run share the workload id.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op that still runs the wrapped call,
// so workloads are written once.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent and returns its id (-1 when untraced).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: parent})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// in runs f inside a span and returns the span's wall time; the call is
// timed the same way whether or not a trace is being recorded.
func (t *tracer) in(name string, parent int, f func(id int)) time.Duration {
	id := t.start(name, parent)
	begin := time.Now()
	f(id)
	d := time.Since(begin)
	t.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are merged first).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, k := range ks {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < s.StartNs {
				lo = s.StartNs
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi <= lo {
				continue
			}
			if curHi < curLo || lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		out[i] = s.EndNs - s.StartNs - covered
	}
	return out
}

// write dumps the spans with their self times to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	doc := struct {
		Workload string    `json:"workload"`
		Spans    []outSpan `json:"spans"`
	}{Workload: t.workload, Spans: make([]outSpan, len(t.spans))}
	for i, s := range t.spans {
		doc.Spans[i] = outSpan{span: s, SelfNs: self[i]}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
