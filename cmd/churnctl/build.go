package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/procstat"
)

// cmdBuild runs the out-of-core wide-table build over a warehouse and
// reports throughput and peak memory — the scale smoke test's workhorse.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	sf := addSourceFlags(fs)
	month := fs.Int("month", 0, "feature month (0 = latest customers partition)")
	groupsFlag := fs.String("groups", "default", "feature groups to build (default = F1-F6; F7-F9 need a fitted model and are rejected here)")
	rssLimitMB := fs.Int("rss-limit-mb", 0, "fail if peak RSS exceeds this many MB (0 = no limit)")
	checksum := fs.Bool("checksum", false, "print a frame checksum (bit-exact across shard counts and workers)")
	fs.Parse(args)

	groups, err := parseGroups(*groupsFlag)
	if err != nil {
		return err
	}
	var (
		frame   *features.Frame
		stats   features.ShardStats
		elapsed time.Duration
	)
	src, wh, days, err := sf.source("build")
	m, _, err := core.ServeMonth(wh, err, *month, nil, func(m int) (err error) {
		win := features.MonthWindow(m, days)
		p := core.NewFrameBuilder(core.Config{Groups: groups, Workers: *sf.workers})
		start := time.Now()
		if *sf.degraded {
			// Missing tables are imputed around instead of failing the build.
			var deg features.Degradation
			frame, stats, deg, err = p.BuildFrameDegraded(src, win)
			if err == nil {
				fmt.Fprintf(os.Stderr, "degraded groups: %s\n", deg)
			}
		} else {
			frame, stats, err = p.BuildFrameSharded(src, win)
		}
		elapsed = time.Since(start)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Printf("built month=%d customers=%d features=%d shards=%d raw_rows=%d in %v (%.0f raw rows/sec)\n",
		m, frame.NumRows(), frame.NumColumns(), stats.Shards, stats.RawRows,
		elapsed.Round(time.Millisecond), float64(stats.RawRows)/elapsed.Seconds())
	peak, ok := procstat.PeakRSSBytes()
	if ok {
		fmt.Printf("peak_rss_mb=%d\n", peak/(1<<20))
	}
	if *checksum {
		fmt.Printf("frame_checksum=%016x\n", frameChecksum(frame))
	}
	if *rssLimitMB > 0 {
		if !ok {
			return fmt.Errorf("-rss-limit-mb set but peak RSS is unavailable on this OS")
		}
		if peak > int64(*rssLimitMB)<<20 {
			return fmt.Errorf("peak RSS %d MB exceeds limit %d MB", peak/(1<<20), *rssLimitMB)
		}
	}
	return nil
}

// frameChecksum digests ids, column names and every cell's exact bits, so
// two builds print the same checksum iff their frames are bit-identical.
func frameChecksum(f *features.Frame) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, name := range f.Names() {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for _, id := range f.IDs() {
		writeU64(uint64(id))
		row, _ := f.Row(id)
		for _, v := range row {
			writeU64(math.Float64bits(v))
		}
	}
	return h.Sum64()
}
