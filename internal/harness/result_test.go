package harness

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func sampleResult() *Result {
	r := NewResult("mutexbench", "A", 9)
	r.SetConfig("mode", "max")
	sum := Summarize([]float64{1, 2, 3})
	r.Add(Cell{
		Lock: "Recipro", Workload: "max", Threads: 4, Unit: "Mops/s",
		Score: 2, Runs: []float64{1, 2, 3}, Summary: &sum,
		Jain: 0.97, Disparity: 1.4, PerWorker: []uint64{10, 11, 9, 10},
		Extras: map[string]float64{"hits": 5},
	})
	r.Add(Cell{Lock: "TKT", Workload: "max", Threads: 4, Unit: "Mops/s", Score: 1.5})
	return r
}

// The shared round-trip test: what every harness emits must decode
// back identically through encoding/json.
func TestResultRoundTrip(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got Result
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Schema != SchemaVersion || got.Harness != "mutexbench" || got.Track != "A" {
		t.Fatalf("identity fields lost: %+v", got)
	}
	if got.Config["mode"] != "max" {
		t.Fatalf("config lost: %v", got.Config)
	}
	if len(got.Cells) != 2 {
		t.Fatalf("cells = %d", len(got.Cells))
	}
	for i, c := range got.Cells {
		if want := r.Cells[i]; c.Lock != want.Lock || c.Workload != want.Workload ||
			c.Threads != want.Threads || c.Score != want.Score || !slices.Equal(c.Runs, want.Runs) {
			t.Fatalf("cell %d: %+v, want %+v", i, c, want)
		}
	}
	c := got.Cells[0]
	if c.Summary == nil || c.Summary.Median != 2 {
		t.Fatalf("cell summary lost: %+v", c)
	}
	if c.Extras["hits"] != 5 || len(c.PerWorker) != 4 {
		t.Fatalf("cell payload lost: %+v", c)
	}
	if got.Env.GOMAXPROCS <= 0 || got.Env.GoVersion == "" || got.Env.Seed != 9 {
		t.Fatalf("env lost: %+v", got.Env)
	}
}

func TestMatrixTable(t *testing.T) {
	r := sampleResult()
	r.Add(Cell{Lock: "Recipro", Workload: "max", Threads: 8, Unit: "Mops/s", Score: 3.25})
	tab := MatrixTable(r, "title")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"T=4", "T=8", "Recipro", "TKT", "3.250"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	// TKT has no T=8 cell: rendered as a hole, not dropped.
	if !strings.Contains(s, "-") {
		t.Fatalf("missing-cell hole not rendered:\n%s", s)
	}
}
