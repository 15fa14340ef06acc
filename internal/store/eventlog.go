package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"telcochurn/internal/codec"
	"telcochurn/internal/table"
)

// Event log: the warehouse's append-only side channel for streaming ingest.
//
// Partitions are immutable monthly batch artifacts; events arrive one at a
// time between rebuilds. The log bridges the two: every accepted ingest
// batch becomes one immutable segment file under <root>/.events/, committed
// through the same temp-file protocol as a partition, so a torn append can
// never become visible. Unlike a partition, a segment is linked into place
// rather than renamed over an existing file, so two handles appending to
// one log cannot overwrite each other's batches. Replaying the segments in
// ascending sequence order reproduces the exact arrival order of every
// event row — the property the incremental feature maintainer's
// bit-identity argument rests on (append-at-end of the serving month's
// rows, see features/incremental.go).
//
// Layout:
//
//	<root>/.events/seq=00000001.tev
//	<root>/.events/seq=00000002.tev
//	...
//
// Each .tev (telco event segment) file is an internal/codec frame:
//
//	magic "TEV1" | uvarint seq | uvarint ntables |
//	  ntables × (table name | table body) | CRC32
//
// where "table body" is the same schema+rows+columns encoding a .tct
// partition uses (writeTableBody). Sequence numbers are dense within one
// log epoch; MergeInto ends an epoch by folding every segment into its
// month partitions and deleting them, after which numbering restarts at 1.

const (
	eventMagic    = "TEV1"
	eventsDirName = ".events"
	// eventsHookName is the pseudo-table name event-log operations report
	// to fault hooks (the month argument carries the segment sequence).
	eventsHookName = "events"
	mergeMarker    = "merge-inprogress"
)

// ErrMergeInterrupted reports a previous MergeInto that died between its
// first partition commit and its log truncation. Re-running the merge could
// apply already-merged segments twice, so the log refuses until an operator
// restores or rebuilds the affected months and removes the marker.
var ErrMergeInterrupted = errors.New("store: previous event merge was interrupted; affected month partitions may already contain the logged events — rebuild them (or restore the warehouse) and remove .events/" + mergeMarker)

// EventLog is an append-only record of ingested raw events, attached to a
// warehouse. Appends are serialized by an internal mutex; replays are
// lock-free over the immutable committed segments.
type EventLog struct {
	w   *Warehouse
	dir string

	mu   sync.Mutex
	last uint64
	// unacked is the number of a segment this handle committed for an
	// append that then failed (0 = none): the next append retries it in
	// place.
	unacked uint64

	// qmu guards the quarantine records (separate from mu so a Replay
	// running inside MergeInto — which holds mu — can still quarantine).
	qmu         sync.Mutex
	quarantined []QuarantineRecord
}

// QuarantineRecord describes one corrupt tail segment that Replay set
// aside instead of failing the boot.
type QuarantineRecord struct {
	// Seq is the sequence number the quarantined file carried.
	Seq uint64
	// Path is the .quarantine sidecar the segment was renamed to.
	Path string
	// Err is the corruption that condemned it.
	Err string
}

// Quarantines returns every segment this log has quarantined since it was
// opened, in quarantine order. Callers surface these as metrics/log lines;
// the records persist only as the on-disk .quarantine sidecars.
func (l *EventLog) Quarantines() []QuarantineRecord {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	out := make([]QuarantineRecord, len(l.quarantined))
	copy(out, l.quarantined)
	return out
}

// quarantine moves a corrupt tail segment to its .quarantine sidecar. The
// sidecar keeps the bytes for postmortem inspection but no longer matches
// the seq=*.tev pattern, so segments(), Replay and Truncate never see it
// again; the in-memory sequence counter is NOT rewound, so the next Append
// cannot reuse the condemned number.
func (l *EventLog) quarantine(seq uint64, cause error) error {
	src := filepath.Join(l.dir, segName(seq))
	dst := src + ".quarantine"
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("store: quarantine segment %d: %w", seq, err)
	}
	l.qmu.Lock()
	l.quarantined = append(l.quarantined, QuarantineRecord{Seq: seq, Path: dst, Err: cause.Error()})
	l.qmu.Unlock()
	return nil
}

// EventLog opens (creating if needed) the warehouse's event log.
func (w *Warehouse) EventLog() (*EventLog, error) {
	dir := filepath.Join(w.root, eventsDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open event log: %w", err)
	}
	l := &EventLog{w: w, dir: dir}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		l.last = segs[len(segs)-1]
	}
	return l, nil
}

// Dir returns the log directory.
func (l *EventLog) Dir() string { return l.dir }

// LastSeq returns the sequence number of the newest committed segment in
// the current epoch (0 = empty log).
func (l *EventLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

func segName(seq uint64) string { return fmt.Sprintf("seq=%08d.tev", seq) }

// segments lists the committed segment sequence numbers, ascending.
func (l *EventLog) segments() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seq=") || !strings.HasSuffix(name, ".tev") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seq="), ".tev"), 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		segs = append(segs, seq)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// Append commits one ingest batch — a set of per-table event rows — as a
// new segment. Every table must be valid, non-empty in aggregate, and carry
// BIGINT imsi and month columns (the keys replay, sharding and merging all
// route by). The whole batch commits atomically: after a crash at any point
// the segment is either fully visible or absent.
//
// A segment never replaces another handle's. Several handles may append
// to one log (churnctl ingest beside a running churnd): when the next
// number's segment already exists, another handle committed it, and the
// batch moves on to the number after. The returned sequence therefore
// exceeds the handle's previous one by more than 1 exactly when another
// handle appended in between. The one segment an append may replace is
// the handle's own from an append that failed after its commit point (a
// crash, a failed directory sync): the next append retries it in place,
// so a retried batch lands once.
func (l *EventLog) Append(batch map[string]*table.Table) (uint64, error) {
	names := SegmentNames(batch)
	if len(names) == 0 {
		return 0, errors.New("store: empty event batch")
	}
	for _, name := range names {
		t := batch[name]
		if err := t.Validate(); err != nil {
			return 0, fmt.Errorf("store: refusing to append invalid events for %q: %w", name, err)
		}
		for _, key := range []string{"imsi", "month"} {
			c := t.Col(key)
			if c == nil || c.Type != table.Int64 {
				return 0, fmt.Errorf("store: event rows for %q need a BIGINT %q column", name, key)
			}
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		seq := l.last + 1
		dst := filepath.Join(l.dir, segName(seq))
		committed, err := l.w.commit(OpAppendEvents, eventsHookName, int(seq), l.dir, dst, seq == l.unacked, func(f io.Writer) error {
			return writeSegment(f, seq, names, batch)
		})
		if errors.Is(err, fs.ErrExist) {
			l.last = seq
			continue
		}
		if err != nil {
			if committed {
				l.unacked = seq
			}
			return 0, err
		}
		l.last, l.unacked = seq, 0
		return seq, nil
	}
}

// SegmentNames returns the tables of batch a segment stores, in the order
// Append writes them and Replay streams them back: the names of the
// non-empty tables, ascending.
func SegmentNames(batch map[string]*table.Table) []string {
	names := make([]string, 0, len(batch))
	for name, t := range batch {
		if t != nil && t.NumRows() > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func writeSegment(w io.Writer, seq uint64, names []string, batch map[string]*table.Table) error {
	cw := codec.NewWriter(w, eventMagic)
	cw.Uvarint(seq)
	cw.Uvarint(uint64(len(names)))
	for _, name := range names {
		cw.Str(name)
		writeTableBody(cw, batch[name], nil)
	}
	_, err := cw.Close()
	return err
}

// readSegment reads and decodes one committed segment.
func (l *EventLog) readSegment(seq uint64) ([]string, []*table.Table, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, segName(seq)))
	if err != nil {
		return nil, nil, err
	}
	return decodeSegment(data, seq)
}

// decodeSegment decodes the bytes of the segment numbered seq.
func decodeSegment(data []byte, seq uint64) ([]string, []*table.Table, error) {
	rd, err := codec.NewReaderBytes(data, eventMagic)
	if err != nil {
		return nil, nil, err
	}
	if got := rd.Uvarint(); got != seq {
		rd.Fail(fmt.Sprintf("segment %d claims seq %d", seq, got))
	}
	// A table is at least a name length, a column count and a row count.
	ntables := rd.Count(3)
	names := make([]string, 0, ntables)
	tables := make([]*table.Table, 0, ntables)
	for i := 0; i < ntables && rd.Err() == nil; i++ {
		names = append(names, rd.Str())
		tables = append(tables, readTableBody(rd))
	}
	if err := rd.Close(); err != nil {
		return nil, nil, err
	}
	return names, tables, nil
}

// Replay streams every committed segment with sequence > after, ascending,
// invoking fn once per (segment, table) pair in the segment's stored order.
// Each segment read runs the OpReplayEvents hook, like a partition read.
//
// A corrupt TAIL segment — torn bytes or a CRC mismatch in the
// newest-numbered file, the only place a crashed append could leave one —
// is quarantined: renamed to a .quarantine sidecar and recorded (see
// Quarantines), and the replay succeeds with every earlier segment
// applied. Corruption anywhere before the tail means later events already
// depend on lost ones; that stays a hard error, as does any
// non-corruption read failure.
func (l *EventLog) Replay(after uint64, fn func(seq uint64, name string, t *table.Table) error) error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for i, seq := range segs {
		if seq <= after {
			continue
		}
		if err := l.w.runHook(OpReplayEvents, eventsHookName, int(seq)); err != nil {
			return err
		}
		names, tables, err := l.readSegment(seq)
		if err != nil {
			if errors.Is(err, ErrCorrupt) && i == len(segs)-1 {
				return l.quarantine(seq, err)
			}
			return fmt.Errorf("store: replay segment %d: %w", seq, err)
		}
		for i, name := range names {
			if err := fn(seq, name, tables[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync flushes any warehouse commits the durability policy is still
// holding (a no-op outside interval mode). A draining daemon calls it so
// its final appended segments survive power loss.
func (l *EventLog) Sync() error { return l.w.SyncNow() }

// Truncate deletes every segment with sequence <= through. In-memory
// numbering continues from the highest sequence ever issued, so replays
// within one process never see a sequence reused.
func (l *EventLog) Truncate(through uint64) error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq > through {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segName(seq))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// MergeInto folds every logged event row into its (table, month) partition
// — appended after the partition's existing rows, in log order, honoring
// each table's committed shard layout — then truncates the merged segments,
// ending the log epoch. A from-scratch build over the merged warehouse is
// then bit-identical to the incremental maintainer's view of the same
// events (same rows, same order, see features/incremental.go).
//
// Each partition commits atomically, but the merge as a whole is not
// atomic: a crash between the first partition commit and the truncation
// leaves a marker file, and subsequent merges fail with
// ErrMergeInterrupted rather than risk double-applying segments. Run
// merges against quiesced warehouses (stop churnd or drain ingest first).
func (l *EventLog) MergeInto() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	marker := filepath.Join(l.dir, mergeMarker)
	if _, err := os.Stat(marker); err == nil {
		return 0, ErrMergeInterrupted
	}

	// Collect every logged row grouped by (table, month), preserving log
	// order within each group. high is the newest segment replayed, which
	// may be another handle's: truncation must reach it.
	grouped := map[string]map[int]*table.Table{}
	total := 0
	var high uint64
	err := l.Replay(0, func(seq uint64, name string, t *table.Table) error {
		high = seq
		months := t.MustCol("month").Ints
		byMonth := grouped[name]
		if byMonth == nil {
			byMonth = map[int]*table.Table{}
			grouped[name] = byMonth
		}
		seen := map[int]bool{}
		for _, m := range months {
			mi := int(m)
			if seen[mi] {
				continue
			}
			seen[mi] = true
			part := t.Filter(func(i int) bool { return int(months[i]) == mi })
			if cur := byMonth[mi]; cur != nil {
				if err := cur.AppendTable(part); err != nil {
					return fmt.Errorf("store: merge events for %q month=%d: %w", name, mi, err)
				}
			} else {
				byMonth[mi] = part
			}
		}
		total += t.NumRows()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	l.last = max(l.last, high)

	// Commit point: from here until truncation, a crash leaves the marker.
	if err := os.WriteFile(marker, []byte("merge started; see ErrMergeInterrupted\n"), 0o644); err != nil {
		return 0, err
	}
	names := make([]string, 0, len(grouped))
	for name := range grouped {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		shards, err := l.w.DetectShards(name)
		if err != nil {
			return 0, err
		}
		sw, err := l.w.Sharded(shards)
		if err != nil {
			return 0, err
		}
		months := make([]int, 0, len(grouped[name]))
		for m := range grouped[name] {
			months = append(months, m)
		}
		sort.Ints(months)
		for _, m := range months {
			events := grouped[name][m]
			merged, err := l.w.ReadPartition(name, m)
			switch {
			case err == nil:
				if err := merged.AppendTable(events); err != nil {
					return 0, fmt.Errorf("store: merge events for %q month=%d: %w", name, m, err)
				}
			case errors.Is(err, fs.ErrNotExist):
				merged = events
			default:
				return 0, err
			}
			if err := sw.WritePartition(name, m, merged); err != nil {
				return 0, err
			}
		}
	}
	if err := l.Truncate(high); err != nil {
		return 0, err
	}
	if err := os.Remove(marker); err != nil {
		return 0, err
	}
	return total, nil
}
