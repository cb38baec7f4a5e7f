// Package mutexbench implements the paper's MutexBench microbenchmark
// (§7.1): T concurrent workers each loop { acquire L; critical
// section; release L; non-critical section }, reporting aggregate
// completed iterations. The critical section advances a shared MT19937
// generator one step; the moderate-contention variant's non-critical
// section draws a uniform value in [0, 250) from a private MT19937 and
// advances that private generator that many steps, with the generator
// state retained across operations so the work cannot be optimized
// away.
//
// This package owns only the workload; the run loop — phases, repeated
// runs, median-of-N selection, per-worker padded counters — is the
// shared engine in internal/harness, and locks are selected from the
// repository-wide catalog (internal/registry).
//
// Caveat recorded in EXPERIMENTS.md: under a single-processor Go
// scheduler, contended results measure scheduling efficiency as much
// as lock handoff; the coherence simulator (internal/simlocks) owns
// the contended-shape claims, while this harness provides real-
// execution evidence and uncontended latency.
package mutexbench

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/pad"
	"repro/internal/registry"
	"repro/internal/rwlock"
	"repro/internal/xrand"
)

// Unit is the primary metric unit this workload reports.
const Unit = "Mops/s"

// Config shapes one benchmark run.
type Config struct {
	Threads int
	// Duration bounds the measurement interval; if zero, Iterations
	// per thread bounds the run instead (deterministic, test-friendly).
	Duration   time.Duration
	Iterations int
	// CSSteps is how many steps the critical section advances the
	// shared PRNG (the paper uses 1).
	CSSteps int
	// NCSMaxSteps is the exclusive bound on the private-PRNG advance
	// in the non-critical section (0 = empty NCS = maximal
	// contention; the paper's moderate configuration uses 250).
	NCSMaxSteps int
	// ReadFrac, when in (0,1], switches the kernel to the read-mostly
	// workload: each iteration is a read section with this probability
	// and a write (exclusive critical section over a guarded pair)
	// otherwise. Read sections go through the lock's strongest read
	// surface: OptimisticRead when the lock is optimistic and does not
	// share, otherwise its read side (rwlock.ReadLocker) — RLock when
	// it shares, a plain exclusive section for everything else, which
	// is exactly the baseline the read-path combinators are measured
	// against.
	ReadFrac float64
	// Runs is the number of independent runs medianed (paper: 7).
	Runs int
	// Seed differentiates private PRNG streams.
	Seed uint32
}

// Result reports one configuration's outcome.
type Result struct {
	Name      string
	Threads   int
	Mops      float64 // aggregate million iterations/sec (median)
	AllRuns   []float64
	PerThread []uint64 // per-thread ops of the median-defining run
	Jain      float64
	Disparity float64
	Elapsed   time.Duration // wall time of the median-defining run
}

// engineConfig maps cfg onto the shared engine.
func engineConfig(cfg Config) harness.Config {
	return harness.Config{
		Threads:    cfg.Threads,
		Duration:   cfg.Duration,
		Iterations: cfg.Iterations,
		Runs:       cfg.Runs,
		Seed:       uint64(cfg.Seed),
	}
}

// guardedPair is the read-mostly workload's shared state: two counters
// a writer advances in lockstep under the exclusive lock, placed on
// separate cache lines so reader traffic on one word does not
// false-share with the other. The words are atomic so optimistic
// (seqlock) read sections stay race-detector-clean.
type guardedPair struct {
	x atomic.Uint64
	_ [pad.CacheLineSize - 8]byte
	y atomic.Uint64
}

// readMostlyWorkload is the ReadFrac > 0 kernel: mostly read sections
// over the guarded pair, occasionally an exclusive write advancing it.
func readMostlyWorkload(lf registry.Entry, cfg Config) harness.Workload {
	var (
		l    sync.Locker
		p    *guardedPair
		seed uint32
	)
	readPct := int(cfg.ReadFrac*100 + 0.5)
	if readPct > 100 {
		readPct = 100
	}
	return &harness.WorkloadFunc{
		SetupFn: func(run harness.RunInfo) {
			seed = uint32(run.Seed)
			l = lf.New(nil)
			p = &guardedPair{}
		},
		WorkerFn: func(id int) func() {
			rng := xrand.NewXorShift64(uint64(id)*0x9e3779b97f4a7c15 + uint64(seed) + 1)
			private := xrand.NewMT19937Seeded(uint32(id)*2654435761 + seed + 1)
			lk, gp := l, p
			ncs := cfg.NCSMaxSteps
			// Resolve the read surface once per worker; a shared read
			// path takes precedence over an optimistic one.
			var opt rwlock.OptimisticLocker
			if !rwlock.IsReadShared(lk) {
				opt, _ = lk.(rwlock.OptimisticLocker)
			}
			rl := rwlock.ReadLocker(lk)
			var sink uint64
			readBody := func() { sink += gp.x.Load() + gp.y.Load() }
			return func() {
				if rng.Intn(100) < readPct {
					if opt != nil {
						opt.OptimisticRead(readBody)
					} else {
						rl.Lock()
						readBody()
						rl.Unlock()
					}
				} else {
					lk.Lock()
					gp.x.Add(1)
					gp.y.Add(1)
					lk.Unlock()
				}
				nonCritical(private, ncs)
			}
		},
	}
}

// nonCritical is the non-critical section: it advances the worker's
// private generator a uniform [0, max) steps and returns how many
// (none when max is 0, maximal contention).
func nonCritical(private *xrand.MT19937, max int) int {
	if max <= 0 {
		return 0
	}
	n := int(private.Uint32n(uint32(max)))
	private.Skip(n)
	return n
}

// Workload returns the §7.1 MutexBench kernel over one catalog entry
// as a harness workload: each run instantiates a fresh lock and a
// fresh shared generator; each worker captures a private generator.
// With cfg.ReadFrac > 0 the kernel is the read-mostly variant instead.
func Workload(lf registry.Entry, cfg Config) harness.Workload {
	if cfg.ReadFrac > 0 {
		return readMostlyWorkload(lf, cfg)
	}
	var (
		l      sync.Locker
		shared *xrand.MT19937
		seed   uint32
	)
	return &harness.WorkloadFunc{
		SetupFn: func(run harness.RunInfo) {
			seed = uint32(run.Seed)
			l = lf.New(nil)
			shared = xrand.NewMT19937Seeded(12345 + seed)
		},
		WorkerFn: func(id int) func() {
			private := xrand.NewMT19937Seeded(uint32(id)*2654435761 + seed + 1)
			lk, sh := l, shared
			cs, ncs := cfg.CSSteps, cfg.NCSMaxSteps
			return func() {
				lk.Lock()
				for s := 0; s < cs; s++ {
					sh.Uint32()
				}
				lk.Unlock()
				nonCritical(private, ncs)
			}
		},
	}
}

// Measure runs cfg against one catalog entry on the shared engine and
// returns the raw measurement (all runs plus the median-defining run
// index).
func Measure(lf registry.Entry, cfg Config) harness.Measurement {
	return harness.Measure(Workload(lf, cfg), engineConfig(cfg))
}

// Run executes cfg against one catalog entry and returns the median
// result. The per-thread vector (and the fairness statistics derived
// from it) comes from the median-defining run — the engine's
// invariant, pinned by tests there.
func Run(lf registry.Entry, cfg Config) Result {
	m := Measure(lf, cfg)
	sel := m.MedianOutcome()
	return Result{
		Name:      lf.Name,
		Threads:   cfg.Threads,
		Mops:      m.Median,
		AllRuns:   m.Scores,
		PerThread: sel.PerWorker,
		Jain:      m.Jain(),
		Disparity: m.Disparity(),
		Elapsed:   sel.Elapsed,
	}
}

// WorkloadName renders cfg's workload cell label: "max" or "moderate"
// by NCS for the exclusive kernel, "readmostly/rNN" (NN = read
// percentage) for the read-mostly one.
func WorkloadName(cfg Config) string {
	if cfg.ReadFrac > 0 {
		pct := int(cfg.ReadFrac*100 + 0.5)
		if pct > 100 {
			pct = 100
		}
		return fmt.Sprintf("readmostly/r%d", pct)
	}
	if cfg.NCSMaxSteps > 0 {
		return "moderate"
	}
	return "max"
}

// SweepResult runs cfg across the given thread counts for every entry
// and renders the cells as the versioned harness result schema
// (workload per WorkloadName).
func SweepResult(lfs []registry.Entry, threadCounts []int, cfg Config) *harness.Result {
	workload := WorkloadName(cfg)
	res := harness.NewResult("mutexbench", "A", uint64(cfg.Seed))
	res.SetConfig("duration", cfg.Duration.String())
	res.SetConfig("runs", strconv.Itoa(cfg.Runs))
	res.SetConfig("cs_steps", strconv.Itoa(cfg.CSSteps))
	res.SetConfig("ncs_max_steps", strconv.Itoa(cfg.NCSMaxSteps))
	if cfg.ReadFrac > 0 {
		res.SetConfig("read_frac", strconv.FormatFloat(cfg.ReadFrac, 'g', -1, 64))
	}
	for _, lf := range lfs {
		for _, tc := range threadCounts {
			c := cfg
			c.Threads = tc
			m := Measure(lf, c)
			res.Add(harness.CellFromMeasurement(lf.Name, workload, Unit, m))
		}
	}
	return res
}
