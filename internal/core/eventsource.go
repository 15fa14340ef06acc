package core

import (
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/table"
)

// EventOverlaySource is a view of a Source that reads as if the event log
// had already been merged: each table's month partition is followed by
// that month's logged-but-unmerged event rows, in log order — exactly the
// row layout store.EventLog.MergeInto commits. A frame built from it is
// therefore Float64bits-identical to a frame built after merge + rebuild,
// which is what lets churnd's /v1/refresh fold streamed events into the
// full wide table (graph groups included) without stopping ingest or
// touching the durable partitions. The embedded Source is the overlaid
// view; pass it wherever a Source is wanted.
//
// The overlay snapshots the log's last sequence at construction: segments
// appended afterwards are invisible, so a refresh sees a consistent
// prefix and can report exactly which events it covers.
type EventOverlaySource struct {
	Source
	seq uint64
	// events buckets the snapshot's rows by table name, then month, rows
	// in log order.
	events map[string]map[int]*table.Table
}

// NewEventOverlaySource snapshots the log at its current last sequence and
// overlays its unmerged events on src. The overlay adds no policy: over a
// RetrySource's view each base month read retries on its own.
func NewEventOverlaySource(src Source, log *store.EventLog) (*EventOverlaySource, error) {
	o := &EventOverlaySource{
		seq:    log.LastSeq(),
		events: map[string]map[int]*table.Table{},
	}
	// A shard reader takes only its shard's events, by the same customer
	// hash the sharded writer splits on, so the per-shard overlay mirrors
	// WritePartition's stable post-merge split.
	o.Source = src.With(func(shard, shards int, rd features.TableReader) features.TableReader {
		return overlayReader{rd: rd, shard: shard, shards: shards, events: o.events}
	})
	snap := o.seq
	err := log.Replay(0, func(seq uint64, name string, t *table.Table) error {
		if seq > snap {
			return nil
		}
		return o.bucket(name, t)
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

// bucket splits one logged table's rows by month, appending in log order.
func (o *EventOverlaySource) bucket(name string, t *table.Table) error {
	months := t.MustCol("month").Ints
	byMonth := o.events[name]
	if byMonth == nil {
		byMonth = map[int]*table.Table{}
		o.events[name] = byMonth
	}
	seen := map[int]bool{}
	for _, m := range months {
		seen[int(m)] = true
	}
	for m := range seen {
		mm := int64(m)
		part := t.Filter(func(i int) bool { return months[i] == mm })
		dst := byMonth[m]
		if dst == nil {
			byMonth[m] = part
			continue
		}
		if err := dst.AppendTable(part); err != nil {
			return err
		}
	}
	return nil
}

// Seq returns the log sequence the overlay covers through.
func (o *EventOverlaySource) Seq() uint64 { return o.seq }

// PendingEvents returns how many logged rows the overlay adds on top of
// the warehouse partitions.
func (o *EventOverlaySource) PendingEvents() int {
	n := 0
	for _, byMonth := range o.events {
		for _, t := range byMonth {
			n += t.NumRows()
		}
	}
	return n
}

// overlayReader interposes the event buckets on a per-table reader,
// month-by-month so every month's events land right after that month's
// base rows — the merge layout.
type overlayReader struct {
	rd features.TableReader
	// shard restricts events to one of shards customer-hash shards (< 0
	// reads all): a customer's rows all hash to one shard.
	shard, shards int
	events        map[string]map[int]*table.Table
}

func (r overlayReader) ReadMonths(name string, months []int) (*table.Table, error) {
	byMonth := r.events[name]
	if len(byMonth) == 0 {
		return r.rd.ReadMonths(name, months)
	}
	var parts []*table.Table
	for _, m := range months {
		base, err := r.rd.ReadMonths(name, []int{m})
		if err != nil {
			return nil, err
		}
		parts = append(parts, base)
		ev := byMonth[m]
		if ev == nil {
			continue
		}
		if r.shard >= 0 {
			keys := ev.MustCol("imsi").Ints
			ev = ev.Filter(func(i int) bool { return table.ShardOf(keys[i], r.shards) == r.shard })
		}
		if ev.NumRows() > 0 {
			parts = append(parts, ev)
		}
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	// The base reader may hand out tables it does not own (a memory source
	// shares the simulator's), so the parts concatenate into a fresh table.
	out := table.NewTable(parts[0].Schema)
	for _, p := range parts {
		if err := out.AppendTable(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
