package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"telcochurn/internal/table"
)

// decodeEvents decodes one POST /v1/events body and assembles its tables.
func decodeEvents(t *testing.T, body string) (map[string]*table.Table, error) {
	t.Helper()
	var b EventBatch
	if err := json.Unmarshal([]byte(body), &b); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return BuildEventTables(b.Events)
}

// TestEventFieldsDecodeExactly: an integer field above 2^53 lands in its
// BIGINT column unrounded, a float field keeps the bits encoding/json gives
// it, and an integer column refuses a fraction or a value past int64.
func TestEventFieldsDecodeExactly(t *testing.T) {
	const peer = int64(1)<<53 + 1 // 9007199254740993: no float64 holds it
	body := `{"events":[{"table":"calls","imsi":12,"month":4,"day":9,"fields":{"peer":` +
		strconv.FormatInt(peer, 10) + `,"dur":0.1,"kind":1}}]}`
	tables, err := decodeEvents(t, body)
	if err != nil {
		t.Fatal(err)
	}
	calls := tables["calls"]
	if got := calls.MustCol("peer").Ints[0]; got != peer {
		t.Errorf("peer = %d, want %d", got, peer)
	}
	var want float64
	json.Unmarshal([]byte("0.1"), &want)
	if got := calls.MustCol("dur").Floats[0]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("dur = %v, want %v", got, want)
	}
	if got := calls.MustCol("kind").Ints[0]; got != 1 {
		t.Errorf("kind = %d, want 1", got)
	}

	for _, bad := range []string{"1.5", "9223372036854775808", "-9223372036854775809"} {
		_, err := decodeEvents(t, `{"events":[{"table":"calls","imsi":12,"month":4,"day":9,"fields":{"peer":`+bad+`}}]}`)
		if err == nil || !strings.Contains(err.Error(), `column "peer"`) {
			t.Errorf("peer %s: got %v, want a column \"peer\" error", bad, err)
		}
	}
}
