package mutexbench

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/xrand"
)

func TestRunIterationMode(t *testing.T) {
	for _, lf := range registry.Paper() {
		lf := lf
		t.Run(lf.Name, func(t *testing.T) {
			res := Run(lf, Config{Threads: 4, Iterations: 500, CSSteps: 1, Runs: 1})
			if res.Name != lf.Name || res.Threads != 4 {
				t.Fatalf("result identity wrong: %+v", res)
			}
			var total uint64
			for _, v := range res.PerThread {
				total += v
			}
			if total != 4*500 {
				t.Fatalf("total ops = %d, want %d", total, 4*500)
			}
			if res.Mops <= 0 {
				t.Fatal("non-positive throughput")
			}
			if res.Jain <= 0 || res.Jain > 1 {
				t.Fatalf("Jain = %v", res.Jain)
			}
		})
	}
}

func TestRunDurationMode(t *testing.T) {
	lf, ok := registry.Lookup("Recipro")
	if !ok {
		t.Fatal("Recipro missing from registry")
	}
	res := Run(lf, Config{Threads: 2, Duration: 50 * time.Millisecond, CSSteps: 1, Runs: 1})
	var total uint64
	for _, v := range res.PerThread {
		total += v
	}
	if total == 0 {
		t.Fatal("duration mode performed no iterations")
	}
}

func TestMedianOfRuns(t *testing.T) {
	lf, _ := registry.Lookup("TKT")
	res := Run(lf, Config{Threads: 2, Iterations: 300, CSSteps: 1, Runs: 3})
	if len(res.AllRuns) != 3 {
		t.Fatalf("runs recorded = %d", len(res.AllRuns))
	}
}

// The PerThread vector (and Jain/Disparity derived from it) must come
// from the median-defining run, not whichever run happened last. The
// selection logic lives in internal/harness (MedianIndex, pinned by
// tests there); this checks the wiring end to end.
func TestResultReportsMedianDefiningRun(t *testing.T) {
	lf, _ := registry.Lookup("TKT")
	res := Run(lf, Config{Threads: 2, Iterations: 400, CSSteps: 1, Runs: 5})
	idx := harness.MedianIndex(res.AllRuns, res.Mops)
	if res.AllRuns[idx] != res.Mops {
		// 5 runs: the median must be one run's exact score.
		t.Fatalf("median %v not the median-defining run's score %v", res.Mops, res.AllRuns[idx])
	}
	var total uint64
	for _, v := range res.PerThread {
		total += v
	}
	if total != 2*400 {
		t.Fatalf("PerThread total = %d, want %d (must be one run's exact vector)", total, 2*400)
	}
}

func TestSweepShape(t *testing.T) {
	lfs := registry.Paper()[:2]
	res := SweepResult(lfs, []int{1, 2}, Config{Iterations: 100, CSSteps: 1, Runs: 1})
	if len(res.Cells) != 4 {
		t.Fatalf("sweep cells = %d, want 4", len(res.Cells))
	}
	for i, c := range res.Cells {
		if lock, threads := lfs[i/2].Name, 1+i%2; c.Lock != lock || c.Threads != threads {
			t.Errorf("cell %d = %s/%d, want %s/%d", i, c.Lock, c.Threads, lock, threads)
		}
	}
}

// The read-mostly kernel must run to completion on every read surface:
// a sharing wrapper (RLock path), an optimistic wrapper (OptimisticRead
// path), and a plain exclusive lock (the baseline fallback).
func TestReadMostlyAllSurfaces(t *testing.T) {
	for _, name := range []string{"rw:Recipro", "seq:Recipro", "occ:Recipro", "Recipro", "GoRWMutex"} {
		name := name
		t.Run(name, func(t *testing.T) {
			lf, ok := registry.Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) failed", name)
			}
			res := Run(lf, Config{Threads: 4, Iterations: 500, ReadFrac: 0.9, Runs: 1})
			var total uint64
			for _, v := range res.PerThread {
				total += v
			}
			if total != 4*500 {
				t.Fatalf("total ops = %d, want %d", total, 4*500)
			}
			if res.Mops <= 0 {
				t.Fatal("non-positive throughput")
			}
		})
	}
}

// ReadFrac controls the cell label and is recorded in the result
// config, so a readmostly sweep's cells are their own workload rather
// than a copy of the max/moderate labels.
func TestReadMostlyWorkloadNaming(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "max"},
		{Config{NCSMaxSteps: 250}, "moderate"},
		{Config{ReadFrac: 0.9}, "readmostly/r90"},
		{Config{ReadFrac: 0.99, NCSMaxSteps: 250}, "readmostly/r99"},
		{Config{ReadFrac: 1}, "readmostly/r100"},
	} {
		if got := WorkloadName(tc.cfg); got != tc.want {
			t.Errorf("WorkloadName(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}

	lf, _ := registry.Lookup("rw:Recipro")
	res := SweepResult([]registry.Entry{lf}, []int{2}, Config{Iterations: 200, ReadFrac: 0.9, Runs: 1})
	if res.Config["read_frac"] != "0.9" {
		t.Fatalf("read_frac config = %q", res.Config["read_frac"])
	}
	if len(res.Cells) != 1 || res.Cells[0].Workload != "readmostly/r90" {
		t.Fatalf("cells = %+v", res.Cells)
	}
}

// The non-critical section does real work outside the lock on every
// iteration, which is what lowers moderate contention's lock pressure:
// at the paper's bound of 250 each call advances the private generator
// by one draw plus a uniform [0, 250) skip (mean 124.5), and at 0 it
// does nothing. Counting generator steps, not timing two runs, keeps
// the check free of scheduling.
func TestNCSReducesLockPressure(t *testing.T) {
	const iters = 2000
	g := xrand.NewMT19937Seeded(7)
	steps := 0
	for i := 0; i < iters; i++ {
		steps += nonCritical(g, 250)
	}
	if mean := float64(steps) / iters; mean < 100 || mean > 150 {
		t.Fatalf("NCS advanced %.1f steps per iteration, want about 124.5", mean)
	}
	// The generator really moved that far: one draw per call plus the
	// reported skips.
	ref := xrand.NewMT19937Seeded(7)
	ref.Skip(iters + steps)
	if g.Uint32() != ref.Uint32() {
		t.Fatalf("private generator is not %d steps on after %d NCS calls", iters+steps, iters)
	}
	if n := nonCritical(g, 0); n != 0 {
		t.Fatalf("maximal contention's empty NCS advanced %d steps", n)
	}
}
