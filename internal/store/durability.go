package store

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Durability policy. The temp-then-rename commit protocol guarantees a
// reader never observes a torn file, but rename alone does not survive a
// pulled plug: on many filesystems neither the renamed file's bytes nor
// the directory entry are on stable storage until fsynced, so a "committed"
// partition can come back empty or absent after a power loss. SyncPolicy
// decides when commits reach the platter: fsync the temp file before its
// rename and the parent directory after (always), batch those flushes on a
// timer (interval), or skip them (off — rebuildable scratch and tests).

// SyncMode selects when warehouse commits are flushed to stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs the temp file before its rename and the parent
	// directory after it, on every commit: a returned write survives an
	// immediate power loss. The default.
	SyncAlways SyncMode = iota
	// SyncInterval tracks committed paths and flushes them together at
	// most every Interval (or on SyncNow): one fsync burst amortizes many
	// commits, bounding the power-loss window to roughly one interval.
	SyncInterval
	// SyncOff never fsyncs. Crash atomicity (no torn files) still holds
	// through rename ordering, but a power loss can lose recently
	// "committed" files entirely.
	SyncOff
)

// SyncPolicy is a warehouse's durability configuration.
type SyncPolicy struct {
	Mode SyncMode
	// Interval is the maximum age of an unflushed commit in SyncInterval
	// mode.
	Interval time.Duration
}

// String renders the policy in the flag syntax ParseSyncPolicy accepts.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncInterval:
		return p.Interval.String()
	case SyncOff:
		return "off"
	default:
		return "always"
	}
}

// ParseSyncPolicy reads the -fsync flag syntax shared by churnctl and
// churnd: "always", "off", or a positive duration like "500ms" selecting
// interval mode with that flush interval.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "", "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "off", "never":
		return SyncPolicy{Mode: SyncOff}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("store: bad fsync policy %q (want always, off, or a positive interval like 500ms)", s)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// syncState tracks the unflushed commits of one warehouse in interval mode.
type syncState struct {
	mu       sync.Mutex
	files    map[string]struct{}
	dirs     map[string]struct{}
	lastSync time.Time
}

// SetSync installs the durability policy for every subsequent commit
// (partitions, staged days, event-log segments). Install it before
// concurrent use, like SetHook; the zero-value warehouse syncs always.
func (w *Warehouse) SetSync(p SyncPolicy) { w.sync = p }

// commitSync runs the policy's post-rename work for one committed file:
// fsync the parent directory (always), or remember the pair for the next
// flush (interval). The file itself was already fsynced before its rename
// in always mode.
func (w *Warehouse) commitSync(dir, dst string) error {
	switch w.sync.Mode {
	case SyncAlways:
		return fsyncDir(dir)
	case SyncInterval:
		w.pend.mu.Lock()
		if w.pend.files == nil {
			w.pend.files = map[string]struct{}{}
			w.pend.dirs = map[string]struct{}{}
			w.pend.lastSync = time.Now()
		}
		w.pend.files[dst] = struct{}{}
		w.pend.dirs[dir] = struct{}{}
		due := time.Since(w.pend.lastSync) >= w.sync.Interval
		w.pend.mu.Unlock()
		if due {
			return w.SyncNow()
		}
	}
	return nil
}

// SyncNow flushes every commit the interval policy is still holding:
// files first, then their directories. A no-op in always/off modes (always
// has nothing pending; off promises nothing). Callers that need a durable
// cut — a draining daemon, a finished merge — call it before exiting.
func (w *Warehouse) SyncNow() error {
	w.pend.mu.Lock()
	files, dirs := w.pend.files, w.pend.dirs
	w.pend.files, w.pend.dirs = nil, nil
	w.pend.lastSync = time.Now()
	w.pend.mu.Unlock()
	var firstErr error
	for f := range files {
		if err := fsyncFile(f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for d := range dirs {
		if err := fsyncDir(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fsyncFile flushes one committed file; a file already superseded or
// removed (shard cleanup, truncated segments) has nothing left to sync.
func fsyncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	return f.Sync()
}

// fsyncDir flushes a directory so a just-renamed entry survives power
// loss. Filesystems that reject directory fsync (EINVAL/ENOTSUP) get the
// rename ordering they already provide — not an error.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}
