package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// fixture writes a mutexbench-shaped result whose single cell scores
// score, returning the path.
func fixture(t *testing.T, dir, name string, score float64) string {
	t.Helper()
	res := harness.NewResult("mutexbench", "A", 1)
	sum := harness.Summarize([]float64{score, score, score})
	res.Add(harness.Cell{
		Lock: "TKT", Workload: "max", Threads: 4, Unit: "Mops/s",
		Score: score, Runs: []float64{score, score, score}, Summary: &sum,
	})
	path := filepath.Join(dir, name)
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSelfCheckExitsZero(t *testing.T) {
	dir := t.TempDir()
	path := fixture(t, dir, "base.json", 10)
	var out, errb bytes.Buffer
	if code := run([]string{"-check", path}, &out, &errb); code != 0 {
		t.Fatalf("self-check exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("self-check output: %s", out.String())
	}
}

func TestInjectedRegressionExitsOne(t *testing.T) {
	dir := t.TempDir()
	old := fixture(t, dir, "old.json", 10)
	next := fixture(t, dir, "new.json", 5) // -50%, far past any gate
	var out, errb bytes.Buffer
	if code := run([]string{old, next}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; out: %s err: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("report should flag the regression: %s", out.String())
	}
}

func TestDirTrajectory(t *testing.T) {
	dir := t.TempDir()
	fixture(t, dir, "001.json", 10)
	fixture(t, dir, "002.json", 10.5)
	fixture(t, dir, "003.json", 4) // regression at the last step
	var out, errb bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errb); code != 1 {
		t.Fatalf("trajectory exit = %d, want 1; err: %s", code, errb.String())
	}
	// Two consecutive diffs rendered.
	if n := strings.Count(out.String(), "mutexbench: "); n != 2 {
		t.Fatalf("rendered %d diffs, want 2: %s", n, out.String())
	}
}

func TestUsageAndIOErrorsExitTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no-args exit = %d, want 2", code)
	}
	if code := run([]string{"missing-a.json", "missing-b.json"}, &out, &errb); code != 2 {
		t.Fatalf("missing-file exit = %d, want 2", code)
	}
	dir := t.TempDir()
	if code := run([]string{"-dir", dir}, &out, &errb); code != 2 {
		t.Fatalf("empty-dir exit = %d, want 2", code)
	}
}

// -merge combines a mutexbench and a kvbench result into one baseline
// that then passes -check — the bench-json recipe in the Makefile.
func TestMergeProducesCheckableBaseline(t *testing.T) {
	dir := t.TempDir()
	a := fixture(t, dir, "a.json", 10)
	res := harness.NewResult("kvbench", "A", 1)
	res.Add(harness.Cell{Lock: "TKT", Workload: "readrandom/s4", Threads: 4, Unit: "Mops/s", Score: 3})
	b := filepath.Join(dir, "b.json")
	if err := res.WriteFile(b); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-merge", "-out", merged, a, b}, &out, &errb); code != 0 {
		t.Fatalf("merge exit = %d, stderr: %s", code, errb.String())
	}
	got, err := harness.ReadFile(merged)
	if err != nil {
		t.Fatalf("merged file unreadable: %v", err)
	}
	if got.Harness != "suite" || len(got.Cells) != 2 {
		t.Fatalf("merged: harness %q, %d cells", got.Harness, len(got.Cells))
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-check", merged}, &out, &errb); code != 0 {
		t.Fatalf("merged baseline fails -check: %s", errb.String())
	}

	// Same file twice: the collision must surface as a usage error.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-merge", "-out", merged, a, a}, &out, &errb); code != 2 {
		t.Fatalf("duplicate merge exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "collision") {
		t.Fatalf("stderr: %s", errb.String())
	}

	// -merge without -out is a usage error.
	if code := run([]string{"-merge", a, b}, &out, &errb); code != 2 {
		t.Fatal("merge without -out accepted")
	}
}

func TestCrossHarnessRefused(t *testing.T) {
	dir := t.TempDir()
	a := fixture(t, dir, "a.json", 10)
	res := harness.NewResult("kvbench", "A", 1)
	res.Add(harness.Cell{Lock: "TKT", Workload: "max", Threads: 4, Unit: "Mops/s", Score: 10})
	b := filepath.Join(dir, "b.json")
	if err := res.WriteFile(b); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{a, b}, &out, &errb); code != 2 {
		t.Fatalf("cross-harness exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "harness mismatch") {
		t.Fatalf("stderr: %s", errb.String())
	}
	// Results from another CPU count or GOMAXPROCS measure a different
	// machine: refused the same way, naming both values.
	for _, field := range []string{"num_cpu", "gomaxprocs"} {
		res, err := harness.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		v := &res.Env.NumCPU
		if field == "gomaxprocs" {
			v = &res.Env.GOMAXPROCS
		}
		want := fmt.Sprintf("%s mismatch: %d vs %d", field, *v, *v+1)
		*v++
		c := filepath.Join(dir, field+".json")
		if err := res.WriteFile(c); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errb.Reset()
		if code := run([]string{a, c}, &out, &errb); code != 2 {
			t.Fatalf("%s mismatch exit = %d, want 2", field, code)
		}
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("%s mismatch stderr: %s", field, errb.String())
		}
	}
}
