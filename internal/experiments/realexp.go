package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/atomicstruct"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kvstore"
	"repro/internal/mutexbench"
	"repro/internal/registry"
	"repro/internal/table"
)

// TrackANote is prepended to all real-execution (Track A) reports.
var TrackANote = fmt.Sprintf(
	`Track A: real goroutine execution on this host (GOMAXPROCS=%d).
Contended numbers are scheduler-influenced; the coherence simulator
(Track B) owns the contended-shape claims. See EXPERIMENTS.md.`,
	runtime.GOMAXPROCS(0))

// defaultThreads is the Track A sweep (goroutines, not processors).
func defaultThreads() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig1Real runs MutexBench (§7.1) for real — the Figure 1 lock set
// across a goroutine sweep — as the familiar matrix table. moderate
// selects the Figure 1b non-critical section (private MT19937
// advanced uniform [0,250) steps).
func Fig1Real(moderate bool, dur time.Duration, runs int) *table.Table {
	if dur <= 0 {
		dur = 300 * time.Millisecond
	}
	if runs <= 0 {
		runs = 3
	}
	label := "max contention"
	ncs := 0
	if moderate {
		label = "moderate contention"
		ncs = 250
	}
	res := mutexbench.SweepResult(registry.Paper(), defaultThreads(), mutexbench.Config{
		Duration:    dur,
		CSSteps:     1,
		NCSMaxSteps: ncs,
		Runs:        runs,
	})
	return harness.MatrixTable(res,
		fmt.Sprintf("Figure 1 (%s) — MutexBench aggregate Mops/s (median of %d)", label, runs))
}

// Fig2 reproduces §7.2 over the Figure 1 lock set; Fig2Locks accepts
// any catalog selection.
func Fig2(cas bool, dur time.Duration, runs int) *table.Table {
	return Fig2Locks(registry.Paper(), cas, dur, runs)
}

// fig2Workload is the §7.2 kernel on the shared engine: a shared
// lock-striped Atomic[S] hammered with exchange (Figure 2a) or a
// load/modify/CAS-retry loop (Figure 2b).
func fig2Workload(lf registry.Entry, cas bool) harness.Workload {
	var shared *atomicstruct.Atomic[atomicstruct.S]
	return &harness.WorkloadFunc{
		SetupFn: func(run harness.RunInfo) {
			stripe := atomicstruct.NewStripe(64, func() sync.Locker { return lf.New(nil) })
			shared = atomicstruct.New[atomicstruct.S](stripe)
		},
		WorkerFn: func(id int) func() {
			local := atomicstruct.S{A: int32(id)}
			sh := shared
			if cas {
				// Figure 2b: load, bump first field, CAS-retry.
				return func() {
					cur := sh.Load()
					for {
						next := cur
						next.A++
						wit, ok := sh.CompareExchange(cur, next)
						if ok {
							break
						}
						cur = wit
					}
				}
			}
			// Figure 2a: swap local and shared.
			return func() {
				local = sh.Exchange(local)
			}
		},
	}
}

// Fig2Results reproduces §7.2 for each selected lock, emitting the
// versioned result schema (workload "exchange" or "cas").
func Fig2Results(lfs []registry.Entry, cas bool, dur time.Duration, runs int) *harness.Result {
	if dur <= 0 {
		dur = 200 * time.Millisecond
	}
	if runs <= 0 {
		runs = 3
	}
	workload := "exchange"
	if cas {
		workload = "cas"
	}
	res := harness.NewResult("atomicbench", "A", 0)
	res.SetConfig("duration", dur.String())
	res.SetConfig("runs", strconv.Itoa(runs))
	for _, lf := range lfs {
		for _, tc := range defaultThreads() {
			m := harness.Measure(fig2Workload(lf, cas), harness.Config{
				Threads:  tc,
				Duration: dur,
				Runs:     runs,
			})
			res.Add(harness.CellFromMeasurement(lf.Name, workload, mutexbench.Unit, m))
		}
	}
	return res
}

// Fig2Locks renders Fig2Results as the familiar matrix table.
func Fig2Locks(lfs []registry.Entry, cas bool, dur time.Duration, runs int) *table.Table {
	if runs <= 0 {
		runs = 3
	}
	op := "exchange"
	if cas {
		op = "compare_exchange_strong"
	}
	res := Fig2Results(lfs, cas, dur, runs)
	return harness.MatrixTable(res,
		fmt.Sprintf("Figure 2 (%s) — std::atomic<S> ops Mops/s (median of %d)", op, runs))
}

// Fig3 reproduces §7.3 over the Figure 1 lock set; Fig3Locks accepts
// any catalog selection.
func Fig3(dur time.Duration, keys int, runs int) *table.Table {
	return Fig3Locks(registry.Paper(), dur, keys, runs)
}

// KVReadRandomMeasure drives the §7.3 readrandom workload for one
// lock on the shared engine: every run opens a fresh store guarded by
// a new lock instance (built by newLock when non-nil, else the
// catalog constructor) and fills it with keys sequential keys.
func KVReadRandomMeasure(lf registry.Entry, newLock func() sync.Locker, cfg kvstore.ReadRandomConfig, keys, runs int) harness.Measurement {
	return KVShardedReadRandomMeasure(lf, newLock, 1, cfg, keys, runs)
}

// KVShardedReadRandomMeasure generalizes KVReadRandomMeasure to the
// sharded store: shards ≤ 1 opens the coarse Figure 3 DB, larger
// counts open a ShardedDB whose per-shard locks come from the same
// factory and whose per-shard memtable budget is the coarse budget
// split evenly, so the total in-memory working set matches across the
// shard sweep.
func KVShardedReadRandomMeasure(lf registry.Entry, newLock func() sync.Locker, shards int, cfg kvstore.ReadRandomConfig, keys, runs int) harness.Measurement {
	mk := newLock
	if mk == nil {
		mk = func() sync.Locker { return lf.New(nil) }
	}
	open := func(run harness.RunInfo) kvstore.Store {
		db := OpenKVStore(mk, shards)
		kvstore.FillSeq(db, keys, 100)
		return db
	}
	w := kvstore.ReadRandomWorkload(open, cfg)
	return harness.Measure(w, harness.Config{
		Threads:  cfg.Threads,
		Duration: cfg.Duration,
		Runs:     runs,
		Seed:     cfg.Seed,
	})
}

// kvMemTableBytes is the total memtable budget of every kvbench store
// (split across shards for the sharded shape).
const kvMemTableBytes = 256 << 10

// OpenKVStore opens the benchmark store at the given shard count —
// the coarse DB for shards ≤ 1, a ShardedDB otherwise — with the
// shared memtable budget and one lock per shard from mk.
func OpenKVStore(mk func() sync.Locker, shards int) kvstore.Store {
	if shards <= 1 {
		return kvstore.Open(kvstore.Options{Lock: mk(), MemTableBytes: kvMemTableBytes})
	}
	per := kvMemTableBytes / shards
	if per < 4<<10 {
		per = 4 << 10
	}
	return kvstore.OpenSharded(kvstore.ShardedOptions{
		Shards:        shards,
		NewLock:       mk,
		MemTableBytes: per,
	})
}

// ShardWorkload names a workload cell at a shard count: the base name
// for the coarse store, "<base>/s<N>" for N shards — keeping coarse
// cell labels identical to the pre-sharding schema.
func ShardWorkload(base string, shards int) string {
	if shards <= 1 {
		return base
	}
	return fmt.Sprintf("%s/s%d", base, shards)
}

// Fig3Locks reproduces §7.3 — readrandom over the LSM-lite store
// guarded by each selected lock — as a lock × thread matrix of median
// Mops/s. Each run opens and fills a fresh store, so runs are
// independent as the paper's protocol requires.
func Fig3Locks(lfs []registry.Entry, dur time.Duration, keys int, runs int) *table.Table {
	if dur <= 0 {
		dur = 300 * time.Millisecond
	}
	if keys <= 0 {
		keys = 50_000
	}
	if runs <= 0 {
		runs = 3
	}
	threads := defaultThreads()
	t := table.New(fmt.Sprintf("Figure 3 — KV readrandom Mops/s over %d keys (median of %d)", keys, runs),
		threadHeaders(threads)...)
	for _, lf := range lfs {
		row := []string{lf.Name}
		for _, tc := range threads {
			m := KVReadRandomMeasure(lf, nil, kvstore.ReadRandomConfig{
				Threads:  tc,
				Keyspace: keys,
				Duration: dur,
			}, keys, runs)
			row = append(row, table.F(m.Median, 3))
		}
		t.Add(row...)
	}
	return t
}

// UncontendedLatency measures single-thread acquire+release latency
// in ns/op for every lock in the repository (the T=1 point of Figure
// 1, where the paper reports Ticket fastest, then HemLock,
// Reciprocating, CLH, MCS).
func UncontendedLatency(iters int) *table.Table {
	if iters <= 0 {
		iters = 2_000_000
	}
	t := table.New("Uncontended latency — single-thread Lock+Unlock", "Lock", "ns/op")
	for _, lf := range registry.All() {
		var l sync.Locker
		w := &harness.WorkloadFunc{
			SetupFn: func(run harness.RunInfo) {
				l = lf.New(nil)
				// Warmup.
				for i := 0; i < 10_000; i++ {
					l.Lock()
					l.Unlock()
				}
			},
			WorkerFn: func(id int) func() {
				lk := l
				return func() {
					lk.Lock()
					lk.Unlock()
				}
			},
		}
		m := harness.Measure(w, harness.Config{Threads: 1, Iterations: iters, Runs: 1})
		ns := float64(m.MedianOutcome().Elapsed.Nanoseconds()) / float64(iters)
		t.Add(lf.Name, table.F(ns, 1))
	}
	return t
}

// MitigationFairness contrasts long-term per-thread admission
// fairness (§9.2, §9.4) across the plain Reciprocating lock, the
// Bernoulli-deferral FairLock, the TwoLane formulation, the randomized
// retrograde ticket lock, and FIFO baselines, using real execution
// (one run per lock). Jain and disparity come from the measured run.
func MitigationFairness(dur time.Duration) *table.Table {
	if dur <= 0 {
		dur = 400 * time.Millisecond
	}
	// Catalog entries plus two parameterized FairLock variants that
	// exist only for this ablation (and so are not catalog members);
	// "Fair(1/16)" relabels the catalog's default-probability Fair.
	set := []registry.Entry{
		fromCatalog("Recipro"),
		relabel(fromCatalog("Fair"), "Fair(1/16)"),
		{Name: "Fair(1/4)", New: func(c clock.Clock) sync.Locker { return &core.FairLock{DeferProb: 64, Clk: c} }},
		fromCatalog("TwoLane"),
		fromCatalog("RetroRand"),
		fromCatalog("Retrograde"),
		relabel(fromCatalog("TKT"), "TKT(FIFO)"),
	}
	t := table.New("§9.4 mitigation — long-term admission fairness (8 goroutines, Track A)",
		"Lock", "Jain", "Max/Min", "Mops")
	for _, lf := range set {
		m := mutexbench.Measure(lf, mutexbench.Config{
			Threads:  8,
			Duration: dur,
			CSSteps:  1,
			Runs:     1,
		})
		t.Add(lf.Name, table.F(harness.Finite(m.Jain()), 4), table.F(harness.Finite(m.Disparity()), 2),
			table.F(m.Median, 3))
	}
	return t
}

// threadHeaders is the header row of a lock × thread-count matrix.
func threadHeaders(threads []int) []string {
	h := []string{"Lock"}
	for _, tc := range threads {
		h = append(h, fmt.Sprintf("T=%d", tc))
	}
	return h
}

// fromCatalog resolves a registry entry, panicking on a bad name —
// these are compile-time-known experiment sets, not user input.
func fromCatalog(name string) registry.Entry {
	e, ok := registry.Lookup(name)
	if !ok {
		panic("experiments: unknown catalog lock " + name)
	}
	return e
}

// relabel renames an entry for presentation in an ablation table.
func relabel(e registry.Entry, name string) registry.Entry {
	e.Name = name
	return e
}
