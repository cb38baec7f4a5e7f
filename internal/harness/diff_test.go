package harness

import (
	"strings"
	"testing"
)

func baseline() *Result {
	r := NewResult("mutexbench", "A", 1)
	sumTight := Summarize([]float64{1.98, 2.0, 2.02}) // cv ≈ 1%
	r.Add(Cell{Lock: "Recipro", Workload: "max", Threads: 4, Unit: "Mops/s",
		Score: 2.0, Runs: []float64{1.98, 2.0, 2.02}, Summary: &sumTight})
	sumNoisy := Summarize([]float64{0.7, 1.0, 1.3}) // cv ≈ 30%
	r.Add(Cell{Lock: "TKT", Workload: "max", Threads: 4, Unit: "Mops/s",
		Score: 1.0, Runs: []float64{0.7, 1.0, 1.3}, Summary: &sumNoisy})
	return r
}

func clone(r *Result) *Result {
	c := *r
	c.Cells = append([]Cell(nil), r.Cells...)
	return &c
}

// Self-diff must never flag anything — the benchdiff -check smoke.
func TestSelfDiffClean(t *testing.T) {
	r := baseline()
	rep, err := Diff(r, r, DefaultDiffOptions())
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if rep.Regressions() != 0 || rep.Improvements() != 0 {
		t.Fatalf("self-diff flagged: %+v", rep.Deltas)
	}
	if len(rep.MissingInNew) != 0 || len(rep.AddedInNew) != 0 {
		t.Fatalf("self-diff coverage drift: %+v", rep)
	}
}

// An injected synthetic regression (50% drop on a tight cell) must be
// flagged.
func TestInjectedRegressionFlagged(t *testing.T) {
	oldR := baseline()
	newR := clone(oldR)
	newR.Cells[0].Score = 1.0 // Recipro: 2.0 → 1.0
	rep, err := Diff(oldR, newR, DefaultDiffOptions())
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if rep.Regressions() != 1 {
		t.Fatalf("regressions = %d, want 1: %+v", rep.Regressions(), rep.Deltas)
	}
	var d Delta
	for _, x := range rep.Deltas {
		if x.Regression {
			d = x
		}
	}
	if !strings.Contains(d.Key, "Recipro") || d.Rel > -0.49 {
		t.Fatalf("wrong delta flagged: %+v", d)
	}
}

// A drop inside a noisy cell's own run scatter must NOT be flagged:
// the noise widening (3 × 30% cv) swallows a 20% delta that the flat
// 12% floor would have flagged.
func TestNoiseWideningSuppressesNoisyCell(t *testing.T) {
	oldR := baseline()
	newR := clone(oldR)
	newR.Cells[1].Score = 0.8 // TKT: 1.0 → 0.8, −20%, cv 30%
	rep, err := Diff(oldR, newR, DefaultDiffOptions())
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if rep.Regressions() != 0 {
		t.Fatalf("noisy within-scatter delta flagged: %+v", rep.Deltas)
	}
	// The same −20% on the tight cell IS a regression.
	newR2 := clone(oldR)
	newR2.Cells[0].Score = 1.6
	rep2, _ := Diff(oldR, newR2, DefaultDiffOptions())
	if rep2.Regressions() != 1 {
		t.Fatalf("tight-cell −20%% not flagged: %+v", rep2.Deltas)
	}
}

func TestImprovementFlagged(t *testing.T) {
	oldR := baseline()
	newR := clone(oldR)
	newR.Cells[0].Score = 3.0
	rep, _ := Diff(oldR, newR, DefaultDiffOptions())
	if rep.Improvements() != 1 || rep.Regressions() != 0 {
		t.Fatalf("report: %+v", rep.Deltas)
	}
}

func TestCoverageDriftReported(t *testing.T) {
	oldR := baseline()
	newR := clone(oldR)
	newR.Cells = newR.Cells[:1]
	newR.Add(Cell{Lock: "MCS", Workload: "max", Threads: 4, Unit: "Mops/s", Score: 1})
	rep, err := Diff(oldR, newR, DefaultDiffOptions())
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(rep.MissingInNew) != 1 || !strings.Contains(rep.MissingInNew[0], "TKT") {
		t.Fatalf("missing = %v", rep.MissingInNew)
	}
	if len(rep.AddedInNew) != 1 || !strings.Contains(rep.AddedInNew[0], "MCS") {
		t.Fatalf("added = %v", rep.AddedInNew)
	}
}

func TestCrossHarnessRefused(t *testing.T) {
	a := baseline()
	b := clone(a)
	b.Harness = "kvbench"
	if _, err := Diff(a, b, DefaultDiffOptions()); err == nil {
		t.Fatal("cross-harness diff accepted")
	}
	c := clone(a)
	c.Track = "B"
	if _, err := Diff(a, c, DefaultDiffOptions()); err == nil {
		t.Fatal("cross-track diff accepted")
	}
	d := clone(a)
	d.Env.NumCPU = a.Env.NumCPU + 1
	if _, err := Diff(a, d, DefaultDiffOptions()); err == nil || !strings.Contains(err.Error(), "num_cpu") {
		t.Fatalf("cross-CPU-count diff: err = %v", err)
	}
	e := clone(a)
	e.Env.GOMAXPROCS = a.Env.GOMAXPROCS + 1
	if _, err := Diff(a, e, DefaultDiffOptions()); err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Fatalf("cross-GOMAXPROCS diff: err = %v", err)
	}
}

func TestEnvWarnings(t *testing.T) {
	a := baseline()
	b := clone(a)
	b.Env.GoVersion = a.Env.GoVersion + "-other"
	b.Env.Chaos = true
	rep, err := Diff(a, b, DefaultDiffOptions())
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(rep.EnvWarnings) != 2 {
		t.Fatalf("env warnings = %v", rep.EnvWarnings)
	}
}

func TestReportTable(t *testing.T) {
	oldR := baseline()
	newR := clone(oldR)
	newR.Cells[0].Score = 1.0
	rep, _ := Diff(oldR, newR, DefaultDiffOptions())
	s := rep.Table("diff").String()
	if !strings.Contains(s, "REGRESSION") || !strings.Contains(s, "Recipro") {
		t.Fatalf("table:\n%s", s)
	}
}
