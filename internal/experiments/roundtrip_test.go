package experiments

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/kvstore"
	"repro/internal/mutexbench"
	"repro/internal/registry"
)

// Every -json harness family (mutexbench, atomicbench, kvbench) emits
// the same versioned Result schema; this round-trips one small result
// per family through encoding/json, so a change that breaks any
// harness's emission (invalid JSON, a lost field) fails here.
func TestAllHarnessResultsRoundTrip(t *testing.T) {
	lfs := registry.Paper()[:2]
	d := 5 * time.Millisecond
	families := map[string]func() *harness.Result{
		"mutexbench": func() *harness.Result {
			return mutexbench.SweepResult(lfs, []int{1, 2}, mutexbench.Config{
				Iterations: 200, CSSteps: 1, Runs: 2,
			})
		},
		"atomicbench": func() *harness.Result { return Fig2Results(lfs[:1], false, d, 1) },
		"kvbench": func() *harness.Result {
			res := harness.NewResult("kvbench", "A", 1)
			m := KVReadRandomMeasure(lfs[0], nil, kvstore.ReadRandomConfig{
				Threads: 2, Keyspace: 500, Duration: d,
			}, 500, 1)
			res.Add(harness.CellFromMeasurement(lfs[0].Name, "readrandom", mutexbench.Unit, m))
			return res
		},
	}
	for name, mk := range families {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			res := mk()
			if res.Schema != harness.SchemaVersion {
				t.Fatalf("schema = %d, want %d", res.Schema, harness.SchemaVersion)
			}
			if len(res.Cells) == 0 {
				t.Fatal("no cells emitted")
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			var back harness.Result
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if back.Schema != harness.SchemaVersion || back.Harness != res.Harness || back.Track != res.Track {
				t.Fatalf("identity lost: %q/%q vs %q/%q", back.Harness, back.Track, res.Harness, res.Track)
			}
			if len(back.Cells) != len(res.Cells) {
				t.Fatalf("cells lost: %d vs %d", len(back.Cells), len(res.Cells))
			}
			for i, c := range back.Cells {
				if want := res.Cells[i]; c.Lock != want.Lock || c.Workload != want.Workload ||
					c.Threads != want.Threads || c.Score != want.Score || !slices.Equal(c.Runs, want.Runs) {
					t.Fatalf("cell %d: %+v, want %+v", i, c, want)
				}
			}
		})
	}
}
