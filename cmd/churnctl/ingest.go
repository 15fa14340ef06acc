package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"telcochurn/internal/core"
	"telcochurn/internal/serve"
	"telcochurn/internal/synth"
)

// cmdIngest is the batch loader for the streaming path: it appends raw
// BSS/OSS event rows to a warehouse's durable event log (or POSTs them to
// a running churnd), and with -merge folds the log into the monthly
// partitions so the batch pipeline sees the same rows.
//
// A direct append never overwrites a segment: the log commits each batch
// under the next free sequence number, so a churnd serving the same
// warehouse keeps every batch it took. That churnd picks up a directly
// appended batch at its next post, refresh, reload or restart. A post
// normally folds only the batch it parsed, from memory; when its segment
// lands past the number after the last one churnd folded, another handle
// appended in between, and churnd reads the log back from that point
// instead.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	sf := addSourceFlags(fs)
	eventsPath := fs.String("events", "", `JSON events file in the POST /v1/events shape ("-" = stdin)`)
	synthN := fs.Int("synth", 0, "generate N synthetic events instead of reading -events")
	month := fs.Int("month", 0, "month for -synth events (0 = latest customers partition)")
	seed := fs.Int64("seed", 1, "seed for -synth events")
	addr := fs.String("addr", "", "POST the batch to a running churnd (http://host:port) instead of appending to the log")
	merge := fs.Bool("merge", false, "fold the event log into the monthly partitions after appending")
	fs.Parse(args)

	if *eventsPath != "" && *synthN > 0 {
		return fmt.Errorf("ingest: -events and -synth are mutually exclusive")
	}
	if *eventsPath == "" && *synthN == 0 && !*merge {
		return fmt.Errorf("ingest: nothing to do (need -events, -synth or -merge)")
	}

	// Assemble the batch: decoded from JSON, or synthesized against the
	// serving universe.
	var batch serve.EventBatch
	switch {
	case *eventsPath != "":
		r := io.Reader(os.Stdin)
		if *eventsPath != "-" {
			f, err := os.Open(*eventsPath)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		if err := json.NewDecoder(r).Decode(&batch); err != nil {
			return fmt.Errorf("ingest: decode %s: %w", *eventsPath, err)
		}
	case *synthN > 0:
		ids, m, days, err := ingestUniverse(sf, *addr, *month)
		if err != nil {
			return err
		}
		batch.Events = serve.EventsFromTables(synth.GenerateEvents(ids, m, days, *synthN, *seed))
	}

	// An empty batch still goes through BuildEventTables (or churnd), so it
	// fails as churnd's 400 does instead of exiting 0 with nothing logged.
	if *eventsPath != "" || *synthN > 0 {
		if *addr != "" {
			if err := postEvents(*addr, batch); err != nil {
				return err
			}
		} else {
			tables, err := serve.BuildEventTables(batch.Events)
			if err != nil {
				return err
			}
			wh, err := sf.open()
			if err != nil {
				return err
			}
			elog, err := wh.EventLog()
			if err != nil {
				return err
			}
			seq, err := elog.Append(tables)
			if err != nil {
				return err
			}
			fmt.Printf("appended %d events to %s at seq %d\n", len(batch.Events), elog.Dir(), seq)
		}
	}

	if *merge {
		if *addr != "" {
			return fmt.Errorf("ingest: -merge works on the warehouse directly, not over -addr")
		}
		wh, err := sf.open()
		if err != nil {
			return err
		}
		elog, err := wh.EventLog()
		if err != nil {
			return err
		}
		n, err := elog.MergeInto()
		if err != nil {
			return err
		}
		fmt.Printf("merged %d logged event rows into monthly partitions\n", n)
	}
	return nil
}

// ingestUniverse resolves the customers and month to synthesize events
// for: from the running churnd when -addr is set, from the warehouse's
// latest customers partition otherwise.
func ingestUniverse(sf *sourceFlags, addr string, month int) (ids []int64, m, days int, err error) {
	days = synth.DefaultConfig().DaysPerMonth
	if addr != "" {
		resp, err := http.Get(addr + "/v1/customers?limit=1024")
		if err != nil {
			return nil, 0, 0, err
		}
		defer resp.Body.Close()
		var body struct {
			Month int     `json:"month"`
			IDs   []int64 `json:"ids"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
			return nil, 0, 0, fmt.Errorf("ingest: %s/v1/customers: status %d, %v", addr, resp.StatusCode, err)
		}
		if month == 0 {
			month = body.Month
		}
		return body.IDs, month, days, nil
	}
	wh, err := sf.open()
	m, _, err = core.ServeMonth(wh, err, month, nil, func(m int) error {
		cust, err := wh.ReadMonths(synth.TableCustomers, []int{m})
		if err == nil {
			ids = cust.MustCol("imsi").Ints
		}
		return err
	})
	return ids, m, days, err
}

// postEvents ships the batch to a running churnd and prints its response.
func postEvents(addr string, batch serve.EventBatch) error {
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	resp, err := http.Post(addr+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: %s/v1/events: status %d: %s", addr, resp.StatusCode, buf.String())
	}
	var er struct {
		Seq      uint64 `json:"seq"`
		Applied  int    `json:"applied"`
		Affected int    `json:"affected"`
		Month    int    `json:"month"`
	}
	json.Unmarshal(buf.Bytes(), &er)
	fmt.Printf("ingested %d events via %s: seq %d, %d applied to month %d, %d customers refreshed\n",
		len(batch.Events), addr, er.Seq, er.Applied, er.Month, er.Affected)
	return nil
}
