// Package harness is the shared benchmark engine behind every
// command-line harness in the repository (mutexbench, kvbench,
// atomicbench) and behind the Track A figure reproductions in
// internal/experiments.
//
// Before this package existed each harness reimplemented its own
// measure loop, flag surface, and text-only reporting. The engine
// factors that into one place:
//
//   - Workload: what one benchmark does (per-run setup, a per-worker
//     operation closure, teardown).
//   - Measure: the run driver — one timed (or iteration-bounded)
//     measurement repeated Runs times with the median reported,
//     exactly the paper's §7 median-of-7 protocol. Per-worker operation
//     counters are sector-padded (internal/pad) so the measurement
//     infrastructure does not itself induce false sharing.
//   - Result: a versioned, machine-readable JSON schema (result.go)
//     embedding the internal/stats summaries and environment capture,
//     emitted under -json for reporting; nothing gates on it.
//
// The fairness statistics of a measurement (per-worker operation
// vector, Jain index, disparity) are always taken from the
// median-defining run — the run whose score is the median (or nearest
// it, for even run counts) — never from whichever run happened to
// execute last. That rule was violated once (mutexbench, fixed in
// PR 3); the engine centralizes it and pins it with a regression test.
package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pad"
	"repro/internal/stats"
)

// Workload is one benchmark kernel. The engine calls Setup once per
// run, asks for one operation closure per worker, drives the closures
// through the phase protocol, and calls Teardown after the run.
type Workload interface {
	// Setup prepares fresh state for one run (e.g. a new lock
	// instance, a freshly populated store).
	Setup(run RunInfo)
	// Worker returns the per-operation closure for worker id
	// (0-based). The closure is invoked repeatedly from a single
	// goroutine; per-worker private state (PRNGs, scratch) should be
	// captured in the closure at creation time.
	Worker(id int) func()
	// Teardown releases the run's state.
	Teardown()
}

// ExtraMetrics is optionally implemented by workloads that produce
// auxiliary per-run metrics beyond the operation count (e.g. kvstore
// read hits, writer ops). It is consulted after each run's Teardown,
// so metrics finalized by teardown (a background writer's tally) are
// complete.
type ExtraMetrics interface {
	Extras() map[string]float64
}

// RunInfo identifies one run of a measurement to the workload.
type RunInfo struct {
	Run     int    // run index, 0-based
	Threads int    // worker count for this run
	Seed    uint64 // per-run seed (Config.Seed + run index)
}

// Config shapes one measurement (all runs of one lock × workload ×
// thread-count cell).
type Config struct {
	Threads int
	// Duration bounds the measurement phase; if zero, Iterations per
	// worker bounds the run instead (deterministic, test-friendly).
	Duration time.Duration
	// Iterations is the exact per-worker operation count when
	// Duration is zero.
	Iterations int
	// Runs is the number of independent runs medianed (paper: 7).
	// Values below 1 are treated as 1.
	Runs int
	// Seed differentiates PRNG streams; run r sees Seed+r.
	Seed uint64
}

// RunOutcome is the raw outcome of one run.
type RunOutcome struct {
	Score     float64 // million operations per second
	PerWorker []uint64
	Elapsed   time.Duration
	Extras    map[string]float64
}

// Measurement aggregates the runs of one cell.
type Measurement struct {
	Threads int
	Outs    []RunOutcome
	Scores  []float64 // Outs[i].Score, in run order
	Median  float64
	// MedianRun indexes the median-defining run in Outs: the run
	// whose score is the median, or — for even run counts, where the
	// median averages the two middle scores — the run whose score is
	// nearest it (ties keep the earliest run).
	MedianRun int
}

// MedianOutcome returns the median-defining run's outcome. Fairness
// metrics (per-worker vectors, Jain, disparity) must derive from this
// run, never from the last run executed.
func (m Measurement) MedianOutcome() RunOutcome { return m.Outs[m.MedianRun] }

// Jain returns Jain's fairness index over the median-defining run's
// per-worker operation counts.
func (m Measurement) Jain() float64 {
	per := m.MedianOutcome().PerWorker
	xs := make([]float64, len(per))
	for i, v := range per {
		xs[i] = float64(v)
	}
	return stats.JainIndex(xs)
}

// Disparity returns the max/min per-worker operation ratio of the
// median-defining run.
func (m Measurement) Disparity() float64 {
	per := m.MedianOutcome().PerWorker
	counts := make([]int64, len(per))
	for i, v := range per {
		counts[i] = int64(v)
	}
	return stats.DisparityRatio(counts)
}

// MedianIndex returns the index of the score closest to med (exactly
// the median run for odd run counts; ties keep the earliest run).
func MedianIndex(scores []float64, med float64) int {
	best := 0
	for i, s := range scores {
		if abs(s-med) < abs(scores[best]-med) {
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Measure drives w through cfg.Runs runs and aggregates them. It is
// the single run loop shared by every harness.
func Measure(w Workload, cfg Config) Measurement {
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	m := Measurement{Threads: cfg.Threads}
	for r := 0; r < runs; r++ {
		info := RunInfo{Run: r, Threads: cfg.Threads, Seed: cfg.Seed + uint64(r)}
		w.Setup(info)
		out := runOnce(w, cfg)
		w.Teardown()
		if x, ok := w.(ExtraMetrics); ok {
			out.Extras = x.Extras()
		}
		m.Outs = append(m.Outs, out)
		m.Scores = append(m.Scores, out.Score)
	}
	m.Median = stats.Median(m.Scores)
	m.MedianRun = MedianIndex(m.Scores, m.Median)
	return m
}

// counter is a sector-padded per-worker operation counter: each
// worker's hot count lives on its own 128-byte sector so the
// measurement itself cannot induce false sharing between workers.
type counter struct {
	n atomic.Uint64
	_ [pad.SectorSize - 8]byte
}

// runOnce executes one timed measure→stop cycle (or an exact
// iteration-bounded run) and returns the raw outcome.
func runOnce(w Workload, cfg Config) RunOutcome {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	counters := make([]counter, threads)
	var stop atomic.Bool

	// Every worker marks ready before waiting on begin, and the clock
	// starts only once all have, so goroutine start-up and scheduling
	// delay stay out of Elapsed.
	var ready, begin, done sync.WaitGroup
	begin.Add(1)
	for t := 0; t < threads; t++ {
		t := t
		op := w.Worker(t)
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			c := &counters[t]
			ready.Done()
			begin.Wait()
			if cfg.Duration <= 0 {
				// Deterministic iteration mode: exactly Iterations
				// operations per worker.
				n := cfg.Iterations
				for i := 0; i < n; i++ {
					op()
				}
				c.n.Store(uint64(n))
				return
			}
			for !stop.Load() {
				op()
				c.n.Add(1)
			}
		}()
	}

	snapshot := func() []uint64 {
		s := make([]uint64, threads)
		for i := range counters {
			s[i] = counters[i].n.Load()
		}
		return s
	}

	ready.Wait()
	start := time.Now()
	begin.Done()
	if cfg.Duration > 0 {
		time.Sleep(cfg.Duration)
	}
	// In iteration mode workers terminate on their own; in duration
	// mode the elapsed interval ends where the final snapshot is
	// taken, immediately before workers are released. That snapshot
	// is the first one, at or after Duration, that holds a completed
	// operation: on a loaded host the workers may not have completed
	// one yet, and an empty window would score 0.
	var el time.Duration
	var per []uint64
	if cfg.Duration > 0 {
		per, el = snapshot(), time.Since(start)
		for sum(per) == 0 {
			time.Sleep(10 * time.Microsecond)
			per, el = snapshot(), time.Since(start)
		}
		stop.Store(true)
		done.Wait()
	} else {
		done.Wait()
		el = time.Since(start)
		per = snapshot()
	}

	total := sum(per)
	score := 0.0
	if s := el.Seconds(); s > 0 {
		score = float64(total) / s / 1e6
	}
	return RunOutcome{Score: score, PerWorker: per, Elapsed: el}
}

func sum(xs []uint64) (t uint64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// WorkloadFunc adapts a stateless operation factory into a Workload:
// setup constructs per-run shared state, worker returns the per-worker
// closure. Either hook may be nil.
type WorkloadFunc struct {
	SetupFn    func(run RunInfo)
	WorkerFn   func(id int) func()
	TeardownFn func()
	ExtrasFn   func() map[string]float64
}

// Setup implements Workload.
func (f *WorkloadFunc) Setup(run RunInfo) {
	if f.SetupFn != nil {
		f.SetupFn(run)
	}
}

// Worker implements Workload.
func (f *WorkloadFunc) Worker(id int) func() { return f.WorkerFn(id) }

// Teardown implements Workload.
func (f *WorkloadFunc) Teardown() {
	if f.TeardownFn != nil {
		f.TeardownFn()
	}
}

// Extras implements ExtraMetrics.
func (f *WorkloadFunc) Extras() map[string]float64 {
	if f.ExtrasFn != nil {
		return f.ExtrasFn()
	}
	return nil
}
