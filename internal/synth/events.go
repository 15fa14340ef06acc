package synth

import (
	"math/rand"

	"telcochurn/internal/table"
)

// Event-stream generator: the velocity-axis counterpart of the monthly
// world simulator. Where Generate emits complete month partitions, this
// emits a plausible trickle of individual raw BSS/OSS records — the rows a
// streaming ingest path (churnd POST /v1/events, churnctl ingest) would
// receive between batch loads. It is deliberately independent of the world
// model: stream rows are extra activity layered on top of whatever the
// warehouse already holds, which is exactly the situation incremental
// feature maintenance has to handle.

// eventMix weights how generated events distribute across the streamable
// tables, loosely following the relative row volumes of the simulator.
var eventMix = []struct {
	name   string
	weight int
}{
	{TableCalls, 35},
	{TableMessages, 20},
	{TableRecharges, 15},
	{TableWeb, 12},
	{TableLocations, 10},
	{TableComplaints, 4},
	{TableSearch, 4},
}

// GenerateEvents deterministically produces n raw event rows for the given
// customers in the given month, spread across the streamable event tables,
// keyed by table name (empty tables are omitted). The same (ids, month,
// daysPerMonth, n, seed) always yields the same batch.
func GenerateEvents(ids []int64, month, daysPerMonth, n int, seed int64) map[string]*table.Table {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]*table.Table{}
	if len(ids) == 0 || n <= 0 {
		return out
	}
	totalWeight := 0
	for _, m := range eventMix {
		totalWeight += m.weight
	}
	tableFor := func() string {
		w := rng.Intn(totalWeight)
		for _, m := range eventMix {
			if w < m.weight {
				return m.name
			}
			w -= m.weight
		}
		return eventMix[0].name
	}
	get := func(name string, schema *table.Schema) *table.Table {
		t := out[name]
		if t == nil {
			t = table.NewTable(schema)
			out[name] = t
		}
		return t
	}
	complaintTexts := []string{
		"network signal weak at home cannot make calls",
		"billing error charged twice for data package",
		"internet speed very slow video keeps buffering",
		"service hotline long wait no resolution",
	}
	searchTexts := []string{
		"mobile plan price comparison",
		"how to check remaining data balance",
		"china mobile number portability",
		"best family bundle offers",
	}
	for i := 0; i < n; i++ {
		imsi := ids[rng.Intn(len(ids))]
		m := int64(month)
		day := int64(1 + rng.Intn(daysPerMonth))
		switch name := tableFor(); name {
		case TableCalls:
			dur := 0.0
			success := int64(1)
			if rng.Float64() < 0.9 {
				dur = 10 + float64(rng.ExpFloat64()*120)
			} else {
				success = 0
			}
			get(name, CallsSchema).Append().Int(imsi).
				Int(int64(1_000_000 + rng.Intn(4_000_000))).Int(m).Int(day).
				Float(dur).Int(int64(rng.Intn(4))).Int(int64(rng.Intn(2))).
				Int(int64(rng.Intn(3))).Int(success).Int(0).
				Float(0.5 + float64(float64(rng.Float64())*2)).Float(3 + float64(rng.Float64()*1.5)).
				Float(3 + float64(rng.Float64()*1.5)).Float(3 + float64(rng.Float64()*1.5)).
				Int(0).Int(0).Int(0).Int(int64(rng.Intn(2))).
				Int(0).Int(int64(rng.Intn(2))).Int(0).Int(0).Int(0).Done()
		case TableMessages:
			get(name, MessagesSchema).Append().Int(imsi).
				Int(int64(1_000_000 + rng.Intn(4_000_000))).Int(m).Int(day).
				Int(int64(rng.Intn(4))).Int(int64(rng.Intn(2))).Int(0).
				Int(int64(rng.Intn(3))).Int(0).Int(0).Done()
		case TableRecharges:
			amounts := []float64{10, 30, 50, 100}
			get(name, RechargesSchema).Append().Int(imsi).Int(m).Int(day).
				Float(amounts[rng.Intn(len(amounts))]).Done()
		case TableWeb:
			req := int64(1 + rng.Intn(40))
			succ := req - int64(rng.Intn(3))
			if succ < 0 {
				succ = 0
			}
			get(name, WebSchema).Append().Int(imsi).Int(m).Int(day).Int(req).
				Int(succ).Float(0.5 + float64(rng.Float64()*3)).Int(succ).
				Float(1 + float64(rng.Float64()*4)).Float(200 + float64(rng.Float64()*1800)).
				Float(50 + float64(rng.Float64()*400)).Float(rng.Float64() * 80).
				Float(40 + float64(rng.Float64()*160)).Int(int64(5 + rng.Intn(40))).
				Int(int64(6 + rng.Intn(42))).Float(rng.Float64() * 10).
				Float(rng.Float64() * 1000).Int(int64(rng.Intn(5))).
				Int(int64(rng.Intn(5))).Float(20 + float64(rng.Float64()*200)).Done()
		case TableLocations:
			get(name, LocationsSchema).Append().Int(imsi).Int(m).Int(day).
				Int(int64(rng.Intn(3))).Int(int64(rng.Intn(400))).
				Int(int64(rng.Intn(20))).Float(31 + float64(rng.Float64())).
				Float(121 + float64(rng.Float64())).Done()
		case TableComplaints:
			get(name, ComplaintsSchema).Append().Int(imsi).Int(m).Int(day).
				String(complaintTexts[rng.Intn(len(complaintTexts))]).Done()
		case TableSearch:
			get(name, SearchSchema).Append().Int(imsi).Int(m).Int(day).
				String(searchTexts[rng.Intn(len(searchTexts))]).Done()
		}
	}
	return out
}
