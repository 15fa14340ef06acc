package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// generatedBody is json.Marshal's body for n generated events over ids in
// month 4, the shape churnctl ingest -addr and the ingest benchmark post.
func generatedBody(tb testing.TB, ids []int64, n int, seed int64) []byte {
	tb.Helper()
	body, err := json.Marshal(EventBatch{Events: EventsFromTables(synth.GenerateEvents(ids, 4, synth.DefaultConfig().DaysPerMonth, n, seed))})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// fallbackTables is the EventBatch + BuildEventTables path over body.
func fallbackTables(body []byte) (map[string]*table.Table, int, error) {
	var b EventBatch
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, 0, err
	}
	tables, err := BuildEventTables(b.Events)
	return tables, len(b.Events), err
}

// sameTables fails unless got and want hold the same tables: same names
// and schemas, equal Ints and Strings, Float64bits-equal Floats.
func sameTables(t *testing.T, body []byte, got, want map[string]*table.Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: %d tables, fallback %d", body, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || g.Schema != w.Schema || g.NumRows() != w.NumRows() {
			t.Fatalf("%q: table %s differs from the fallback's", body, name)
		}
		for j, wc := range w.Cols {
			gc := g.Cols[j]
			same := slices.Equal(gc.Ints, wc.Ints) && slices.Equal(gc.Strings, wc.Strings) && len(gc.Floats) == len(wc.Floats)
			for i := 0; same && i < len(wc.Floats); i++ {
				same = math.Float64bits(gc.Floats[i]) == math.Float64bits(wc.Floats[i])
			}
			if !same {
				t.Fatalf("%q: %s column %q differs from the fallback's", body, name, wc.Name)
			}
		}
	}
}

// segmentBytes appends tables as the first batch of a fresh event log and
// returns the segment file's bytes.
func segmentBytes(t *testing.T, tables map[string]*table.Table) []byte {
	t.Helper()
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wh.SetSync(store.SyncPolicy{Mode: store.SyncOff})
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elog.Append(tables); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(elog.Dir(), "*.tev"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkDecode is FuzzDecodeEventTables' property: DecodeEventTables either
// declines body, or the fallback accepts it too with equal tables and
// event count, which the event log writes to the same bytes. It reports
// whether the recognizer accepted.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	got, n, ok := DecodeEventTables(body)
	if !ok {
		return false
	}
	want, wn, err := fallbackTables(body)
	if err != nil {
		t.Fatalf("recognized %q, which the fallback refuses: %v", body, err)
	}
	if n != wn {
		t.Fatalf("%q: %d events, fallback %d", body, n, wn)
	}
	sameTables(t, body, got, want)
	if !bytes.Equal(segmentBytes(t, got), segmentBytes(t, want)) {
		t.Fatalf("%q: the log writes the recognized tables to other bytes", body)
	}
	return true
}

// recharge is a one-event body over a recharge record with the given
// fields object.
func recharge(fields string) string {
	return `{"events":[{"table":"recharges","imsi":5,"month":4,"day":9,"fields":` + fields + `}]}`
}

// decodeSeeds are the cases the recognizer must get right: the shape
// json.Marshal writes, and each way a body can leave it.
var decodeSeeds = []struct {
	body   string
	accept bool
}{
	{recharge(`{"amount":30}`), true},
	{recharge(`{}`), true},
	{`{"events":[{"table":"recharges","imsi":5,"month":4,"day":9}]}`, true},
	{" \n{ \"events\" : [ {\"table\":\"complaints\" , \"imsi\" :5,\"month\":4,\"day\":9,\"fields\":{\"text\":\"slow \xe7\xbd\x91\"}} ] }\r\n\t", true},
	{`{"events":[{"table":"calls","imsi":5,"month":4,"day":9,"fields":{"peer":9007199254740993,"dur":12.5,"kind":1}}]}`, true},
	{recharge(`{"amount":1e-7}`), true},
	{recharge(`{"amount":-0}`), true},
	{recharge(`{"amount":2.5E+21}`), true},
	// Keys: case, escapes, order, repeats, unknown, missing.
	{`{"Events":[{"table":"recharges","imsi":5,"month":4,"day":9}]}`, false},
	{`{"events":[{"TABLE":"recharges","imsi":5,"month":4,"day":9}]}`, false},
	{`{"events":[{"t\u0061ble":"recharges","imsi":5,"month":4,"day":9}]}`, false},
	{`{"events":[{"imsi":5,"table":"recharges","month":4,"day":9}]}`, false},
	{`{"events":[{"table":"recharges","imsi":5,"imsi":6,"month":4,"day":9}]}`, false},
	{`{"events":[{"table":"recharges","imsi":5,"month":4}]}`, false},
	{`{"events":[{"table":"recharges","imsi":5,"month":4,"day":9,"extra":1}]}`, false},
	{`{"events":[{"table":"recharges","imsi":5,"month":4,"day":9}],"events":[]}`, false},
	{recharge(`{"amount":1,"amount":2}`), false},
	{recharge(`{"amonut":3}`), false},
	{recharge(`{"imsi":7}`), false},
	{recharge(`{"month":4}`), false},
	// Values: escapes, exponents into integers, nulls, nesting, ranges.
	{`{"events":[{"table":"complaints","imsi":5,"month":4,"day":9,"fields":{"text":"a\u0041"}}]}`, false},
	{`{"events":[{"table":"complaints","imsi":5,"month":4,"day":9,"fields":{"text":"bad ` + "\xff" + `"}}]}`, false},
	{`{"events":[{"table":"calls","imsi":5,"month":4,"day":9,"fields":{"kind":1e2}}]}`, false},
	{`{"events":[{"table":"calls","imsi":5,"month":4,"day":9,"fields":{"peer":9223372036854775808}}]}`, false},
	{`{"events":[{"table":"calls","imsi":5,"month":4,"day":9,"fields":{"peer":1.0}}]}`, false},
	{recharge(`{"amount":1e400}`), false},
	{recharge(`{"amount":null}`), false},
	{recharge(`{"amount":"30"}`), false},
	{recharge(`{"amount":[30]}`), false},
	{recharge(`{"amount":01}`), false},
	{recharge(`{"amount":.5}`), false},
	{recharge(`null`), false},
	{`{"events":[{"table":"recharges","imsi":5e0,"month":4,"day":9}]}`, false},
	{`{"events":[{"table":"recharges","imsi":0,"month":4,"day":9}]}`, false},
	{`{"events":[{"table":"recharges","imsi":5,"month":-4,"day":9}]}`, false},
	{`{"events":[{"table":"billing","imsi":5,"month":4,"day":9}]}`, false},
	// Batches: empty, trailing bytes, a second value.
	{`{"events":[]}`, false},
	{`{"events":null}`, false},
	{recharge(`{"amount":30}`) + `x`, false},
	{recharge(`{"amount":30}`) + recharge(`{"amount":30}`), false},
	{recharge(`{"amount":30}`)[:40], false},
	{`not json`, false},
}

// TestDecodeEventTables: every generated body and every accepting seed
// takes the recognizer's path, with the fallback's tables; every other
// seed is declined.
func TestDecodeEventTables(t *testing.T) {
	ids := []int64{1_000_001, 1_000_002, 1_000_003, 1_000_004}
	for seed := int64(1); seed <= 8; seed++ {
		body := generatedBody(t, ids, 8, seed)
		if !checkDecode(t, body) {
			t.Fatalf("declined a generated body: %s", body)
		}
	}
	if !checkDecode(t, generatedBody(t, ids, 400, 9)) {
		t.Fatal("declined a 400-event generated body")
	}
	for _, c := range decodeSeeds {
		if got := checkDecode(t, []byte(c.body)); got != c.accept {
			t.Errorf("%q: accepted %v, want %v", c.body, got, c.accept)
		}
	}
}

// FuzzDecodeEventTables pins the recognizer against the EventBatch +
// BuildEventTables path: for any body it declines or agrees exactly.
func FuzzDecodeEventTables(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(generatedBody(f, []int64{1_000_001, 1_000_002, 1_000_003}, 8, seed))
	}
	for _, c := range decodeSeeds {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestFieldsMayNotCarryOwnKeys: imsi, month and day inside "fields" are
// refused, naming the event and the field, rather than dropped.
func TestFieldsMayNotCarryOwnKeys(t *testing.T) {
	for _, name := range []string{"imsi", "month", "day"} {
		body := `{"events":[{"table":"recharges","imsi":5,"month":4,"day":9},` +
			`{"table":"recharges","imsi":5,"month":4,"day":9,"fields":{"` + name + `":7}}]}`
		_, _, err := fallbackTables([]byte(body))
		if err == nil || !strings.Contains(err.Error(), "event 1") || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("%s in fields: got %v, want an error naming event 1 and %q", name, err, name)
		}
		if _, _, ok := DecodeEventTables([]byte(body)); ok {
			t.Errorf("%s in fields: recognized", name)
		}
	}
}

// BenchmarkEventDecode turns the 8-event body a serving benchmark post
// carries into tables, through the recognizer and through EventBatch +
// BuildEventTables.
func BenchmarkEventDecode(b *testing.B) {
	body := generatedBody(b, []int64{1_000_001, 1_000_002, 1_000_003, 1_000_004, 1_000_005, 1_000_006, 1_000_007, 1_000_008}, 8, 1)
	b.Run("recognizer", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := DecodeEventTables(body); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := fallbackTables(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
