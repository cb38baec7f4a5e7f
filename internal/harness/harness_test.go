package harness

import (
	"sync/atomic"
	"testing"
	"time"
)

// countingWorkload counts Setup/Teardown calls and performs a trivial
// atomic op per invocation.
type countingWorkload struct {
	setups    int
	teardowns int
	lastRun   RunInfo
	total     atomic.Uint64
}

func (w *countingWorkload) Setup(run RunInfo) { w.setups++; w.lastRun = run }
func (w *countingWorkload) Teardown()         { w.teardowns++ }
func (w *countingWorkload) Worker(id int) func() {
	return func() { w.total.Add(1) }
}

func TestIterationModeExactCounts(t *testing.T) {
	w := &countingWorkload{}
	m := Measure(w, Config{Threads: 4, Iterations: 500, Runs: 3, Seed: 7})
	if w.setups != 3 || w.teardowns != 3 {
		t.Fatalf("setup/teardown = %d/%d, want 3/3", w.setups, w.teardowns)
	}
	if len(m.Outs) != 3 || len(m.Scores) != 3 {
		t.Fatalf("outcome count = %d/%d", len(m.Outs), len(m.Scores))
	}
	for r, out := range m.Outs {
		var total uint64
		for i, v := range out.PerWorker {
			if v != 500 {
				t.Fatalf("run %d worker %d ops = %d, want 500", r, i, v)
			}
			total += v
		}
		if total != 2000 {
			t.Fatalf("run %d total = %d", r, total)
		}
		if out.Score <= 0 {
			t.Fatalf("run %d non-positive score", r)
		}
	}
	if w.total.Load() != 3*4*500 {
		t.Fatalf("workload op invocations = %d, want %d", w.total.Load(), 3*4*500)
	}
	if w.lastRun.Seed != 7+2 || w.lastRun.Run != 2 || w.lastRun.Threads != 4 {
		t.Fatalf("last RunInfo = %+v", w.lastRun)
	}
}

func TestDurationModeMeasures(t *testing.T) {
	w := &countingWorkload{}
	m := Measure(w, Config{Threads: 2, Duration: 30 * time.Millisecond, Runs: 1})
	out := m.MedianOutcome()
	var total uint64
	for _, v := range out.PerWorker {
		total += v
	}
	if total == 0 {
		t.Fatal("duration mode performed no operations")
	}
	if out.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

// A duration window closes on a snapshot that holds a completed
// operation, however late the workers get going: here every worker's
// first operation outlasts the whole 1 ms window, as a worker not yet
// scheduled on a loaded host would, and the run must still score.
func TestDurationModeNeverEmpty(t *testing.T) {
	w := &WorkloadFunc{WorkerFn: func(int) func() {
		first := true
		return func() {
			if first {
				first = false
				time.Sleep(20 * time.Millisecond)
			}
		}
	}}
	out := Measure(w, Config{Threads: 2, Duration: time.Millisecond, Runs: 1}).MedianOutcome()
	if out.Score <= 0 || sum(out.PerWorker) == 0 {
		t.Fatalf("empty measurement window: score %v, per-worker %v", out.Score, out.PerWorker)
	}
	if out.Elapsed < 20*time.Millisecond {
		t.Fatalf("window closed after %v, before the first operation completed", out.Elapsed)
	}
}

func TestMedianIndex(t *testing.T) {
	cases := []struct {
		scores []float64
		med    float64
		want   int
	}{
		{[]float64{3, 1, 2}, 2, 2},             // odd: exact median run
		{[]float64{5, 1, 9}, 5, 0},             // odd: exact, first position
		{[]float64{1, 2, 3, 100}, 2.5, 1},      // even: nearest to averaged median (tie → earliest)
		{[]float64{4, 1, 2, 8}, 3, 0},          // even: 4 (idx 0) and 2 (idx 2) tie at distance 1 → earliest wins
		{[]float64{7}, 7, 0},                   // single run
		{[]float64{2, 2, 2}, 2, 0},             // all equal → earliest
		{[]float64{1, 9, 10.5, 100}, 10.25, 2}, // even: 10.5 strictly nearest (binary-exact values)
	}
	for i, c := range cases {
		if got := MedianIndex(c.scores, c.med); got != c.want {
			t.Errorf("case %d: MedianIndex(%v, %v) = %d, want %d", i, c.scores, c.med, got, c.want)
		}
	}
}

// Regression test for the bug class fixed in mutexbench in PR 3 and
// centralized here: per-run fairness metrics (per-worker vector, Jain,
// disparity) must come from the median-defining run, never from
// whichever run executed last. The last run below is perfectly fair;
// the median-defining run (index 1, score 2 = median of {1,2,3}) is
// maximally skewed — the cell must report the skew.
func TestCellMetricsComeFromMedianDefiningRun(t *testing.T) {
	m := Measurement{
		Threads: 2,
		Outs: []RunOutcome{
			{Score: 1, PerWorker: []uint64{10, 10}, Elapsed: time.Millisecond},
			{Score: 2, PerWorker: []uint64{30, 10}, Elapsed: 2 * time.Millisecond},
			{Score: 3, PerWorker: []uint64{20, 20}, Elapsed: 3 * time.Millisecond},
		},
		Scores: []float64{1, 2, 3},
	}
	m.Median = 2
	m.MedianRun = MedianIndex(m.Scores, m.Median)
	if m.MedianRun != 1 {
		t.Fatalf("median run = %d, want 1", m.MedianRun)
	}
	c := CellFromMeasurement("L", "w", "Mops/s", m)
	if c.PerWorker[0] != 30 || c.PerWorker[1] != 10 {
		t.Fatalf("PerWorker = %v taken from the wrong run", c.PerWorker)
	}
	if c.Disparity != 3 {
		t.Fatalf("Disparity = %v, want 3 (median-defining run's 30/10)", c.Disparity)
	}
	if c.Jain >= 1 {
		t.Fatalf("Jain = %v; the last run's perfect fairness leaked into the cell", c.Jain)
	}
	if c.ElapsedNS != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("ElapsedNS = %d taken from the wrong run", c.ElapsedNS)
	}
}

func TestMeasureSelectsMedianRun(t *testing.T) {
	w := &countingWorkload{}
	m := Measure(w, Config{Threads: 2, Iterations: 200, Runs: 5})
	want := MedianIndex(m.Scores, m.Median)
	if m.MedianRun != want {
		t.Fatalf("MedianRun = %d, want %d (scores %v, median %v)",
			m.MedianRun, want, m.Scores, m.Median)
	}
	if got := m.MedianOutcome().Score; got != m.Scores[want] {
		t.Fatalf("MedianOutcome score %v != scores[%d] %v", got, want, m.Scores[want])
	}
}

// A starved worker (zero ops in the median-defining run) must not
// crash JSON emission: +Inf disparity is clamped and preserved as a
// note.
func TestNonFiniteMetricsEncode(t *testing.T) {
	m := Measurement{
		Threads: 2,
		Outs:    []RunOutcome{{Score: 1, PerWorker: []uint64{100, 0}}},
		Scores:  []float64{1},
		Median:  1,
	}
	c := CellFromMeasurement("L", "w", "Mops/s", m)
	if c.Disparity != 0 {
		t.Fatalf("infinite disparity not clamped: %v", c.Disparity)
	}
	if c.Notes["disparity"] == "" {
		t.Fatal("infinite disparity lost without a note")
	}
	r := NewResult("test", "A", 1)
	r.Add(c)
	var sink discard
	if err := r.WriteJSON(&sink); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestExtrasCollected(t *testing.T) {
	w := &WorkloadFunc{
		WorkerFn: func(id int) func() { return func() {} },
		ExtrasFn: func() map[string]float64 { return map[string]float64{"hits": 42} },
	}
	m := Measure(w, Config{Threads: 1, Iterations: 10, Runs: 2})
	for r, out := range m.Outs {
		if out.Extras["hits"] != 42 {
			t.Fatalf("run %d extras = %v", r, out.Extras)
		}
	}
	c := CellFromMeasurement("L", "w", "Mops/s", m)
	if c.Extras["hits"] != 42 {
		t.Fatalf("cell extras = %v", c.Extras)
	}
}
