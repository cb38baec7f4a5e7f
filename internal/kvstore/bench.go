package kvstore

import (
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/pad"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Key renders i as a fixed-width big-endian key, matching db_bench's
// dense sequential keyspace.
func Key(i uint64) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[8:], i)
	return b[:]
}

// FillSeq populates db (coarse or sharded) with n sequential keys
// carrying valueSize-byte values — the paper's population step
// (db_bench --benchmarks=fillseq).
func FillSeq(db Store, n int, valueSize int) {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		db.Put(Key(uint64(i)), val)
	}
}

// ReadRandomConfig shapes the §7.3 readrandom benchmark.
type ReadRandomConfig struct {
	Threads  int
	Keyspace int
	// Duration bounds the run; if zero, OpsPerThread bounds it
	// deterministically.
	Duration     time.Duration
	OpsPerThread int
	// ReadFrac, when in (0,1), turns the pure readrandom loop into a
	// read-mostly mix: each operation is a Get with this probability
	// and a Put of a fresh 100-byte value otherwise. Zero keeps the
	// classic 100%-read loop (readrandom's original shape).
	ReadFrac float64
	Seed     uint64
}

// ReadRandomResult reports aggregate throughput.
type ReadRandomResult struct {
	Ops       uint64
	Mops      float64
	Hits      uint64
	PerThread []uint64
	Jain      float64
	Elapsed   time.Duration
}

// ReadWhileWritingWorkload mirrors db_bench's readwhilewriting
// workload on the shared engine: the engine's workers run the
// readrandom loop while one dedicated writer goroutine (started in
// Setup, joined in Teardown) continuously overwrites random keys.
// The writer tally is exported as the "writer_ops" extra; this leans
// on the store's lock(s) from both sides — the single coarse mutex,
// or each key's shard lock — including the freeze/compaction paths.
func ReadWhileWritingWorkload(openDB func(run harness.RunInfo) Store, cfg ReadRandomConfig, valueSize int) harness.Workload {
	var (
		db        Store
		writerOps uint64
		stopW     chan struct{}
		wg        sync.WaitGroup
	)
	keyspace := cfg.Keyspace
	if keyspace <= 0 {
		keyspace = 1
	}
	var reads harness.Workload
	return &harness.WorkloadFunc{
		SetupFn: func(run harness.RunInfo) {
			reads = ReadRandomWorkload(func(harness.RunInfo) Store { return db }, cfg)
			db = openDB(run)
			reads.Setup(run)
			writerOps = 0
			stopW = make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := xrand.NewXorShift64(run.Seed | 1)
				val := make([]byte, valueSize)
				for {
					select {
					case <-stopW:
						return
					default:
					}
					db.Put(Key(uint64(rng.Intn(keyspace))), val)
					writerOps++
				}
			}()
		},
		WorkerFn: func(id int) func() { return reads.Worker(id) },
		TeardownFn: func() {
			close(stopW)
			wg.Wait()
			reads.Teardown()
		},
		ExtrasFn: func() map[string]float64 {
			extras := reads.(harness.ExtraMetrics).Extras()
			extras["writer_ops"] = float64(writerOps)
			return extras
		},
	}
}

// hitCounter is a sector-padded per-worker hit tally (the harness
// engine owns the op counters; hits are workload-specific).
type hitCounter struct {
	n uint64
	_ [pad.SectorSize - 8]byte
}

// ReadRandomWorkload adapts the §7.3 readrandom loop to the shared
// benchmark engine. openDB is called once per run and must return a
// freshly populated store (coarse or sharded); pass a closure
// returning the same Store to reuse one store across runs (the
// single-run ReadRandom entry point does exactly that).
func ReadRandomWorkload(openDB func(run harness.RunInfo) Store, cfg ReadRandomConfig) harness.Workload {
	var (
		db   Store
		seed uint64
		hits []hitCounter
	)
	keyspace := cfg.Keyspace
	if keyspace <= 0 {
		keyspace = 1
	}
	return &harness.WorkloadFunc{
		SetupFn: func(run harness.RunInfo) {
			db = openDB(run)
			seed = run.Seed
			hits = make([]hitCounter, run.Threads)
		},
		WorkerFn: func(id int) func() {
			rng := xrand.NewXorShift64(uint64(id)*0x9e3779b97f4a7c15 + seed + 1)
			d, h := db, &hits[id]
			if cfg.ReadFrac > 0 && cfg.ReadFrac < 1 {
				// Read-mostly mix: Get with probability ReadFrac, Put
				// otherwise. Same devirtualization split as below.
				readPct := int(cfg.ReadFrac*100 + 0.5)
				val := make([]byte, 100)
				if cd, ok := db.(*DB); ok {
					return func() {
						k := Key(uint64(rng.Intn(keyspace)))
						if rng.Intn(100) < readPct {
							if _, ok := cd.Get(k); ok {
								h.n++
							}
						} else {
							cd.Put(k, val)
						}
					}
				}
				return func() {
					k := Key(uint64(rng.Intn(keyspace)))
					if rng.Intn(100) < readPct {
						if _, ok := d.Get(k); ok {
							h.n++
						}
					} else {
						d.Put(k, val)
					}
				}
			}
			if cd, ok := db.(*DB); ok {
				// Devirtualized coarse fast path: identical codegen to
				// the pre-Store loop, so coarse-vs-sharded comparisons
				// measure locking granularity, not interface dispatch.
				return func() {
					k := Key(uint64(rng.Intn(keyspace)))
					if _, ok := cd.Get(k); ok {
						h.n++
					}
				}
			}
			return func() {
				k := Key(uint64(rng.Intn(keyspace)))
				if _, ok := d.Get(k); ok {
					h.n++
				}
			}
		},
		ExtrasFn: func() map[string]float64 {
			var total uint64
			for i := range hits {
				total += hits[i].n
			}
			return map[string]float64{"hits": float64(total)}
		},
	}
}

// engineConfig maps the readrandom config onto the shared engine. The
// legacy 1s default duration is preserved.
func engineConfig(cfg ReadRandomConfig) harness.Config {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	d := cfg.Duration
	if cfg.OpsPerThread == 0 && d <= 0 {
		d = time.Second
	}
	if cfg.OpsPerThread > 0 {
		d = 0
	}
	return harness.Config{
		Threads:    threads,
		Duration:   d,
		Iterations: cfg.OpsPerThread,
		Runs:       1,
		Seed:       cfg.Seed,
	}
}

// resultFromMeasurement converts the median-defining run of m into the
// package's result type.
func resultFromMeasurement(m harness.Measurement) ReadRandomResult {
	sel := m.MedianOutcome()
	var total uint64
	perF := make([]float64, len(sel.PerWorker))
	for i, v := range sel.PerWorker {
		total += v
		perF[i] = float64(v)
	}
	return ReadRandomResult{
		Ops:       total,
		Mops:      m.Median,
		Hits:      uint64(sel.Extras["hits"]),
		PerThread: sel.PerWorker,
		Jain:      stats.JainIndex(perF),
		Elapsed:   sel.Elapsed,
	}
}

// ReadRandom runs T reader threads over db, each looping: generate a
// random key, read it from the database
// (db_bench --benchmarks=readrandom with a fixed duration, as
// modified in §7.3). One run on the shared engine; multi-run median
// selection belongs to callers driving Measure directly.
func ReadRandom(db Store, cfg ReadRandomConfig) ReadRandomResult {
	w := ReadRandomWorkload(func(harness.RunInfo) Store { return db }, cfg)
	return resultFromMeasurement(harness.Measure(w, engineConfig(cfg)))
}
