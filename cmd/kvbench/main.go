// Command kvbench runs the §7.3 experiment (Figure 3) and its sharded
// extension: the readrandom and readwhilewriting workloads against the
// LSM-lite key-value store, whose guarding lock — the DBImpl::Mutex
// analog — is instantiated with each selected lock algorithm in turn.
// With -shards=1 (the default) the store is the paper's single coarse
// central mutex; larger counts hash-partition the keyspace across
// per-shard locks, making shard count × lock algorithm a full harness
// matrix. -mode=predict additionally runs the coarse-grained-locking
// prediction experiment: a model calibrated at T=1,S=1 versus measured
// throughput at every matrix point.
//
// Usage:
//
//	kvbench [-mode=readrandom|readwhilewriting|predict] [-read-frac=0.9]
//	        [-locks=paper|all|...|list] [-shards=1,4,16]
//	        [-keys=50000] [-duration=300ms] [-runs=3] [-threads=1,2,4]
//	        [-json] [-out=file] [-lockstat]
//
// In readrandom mode, -read-frac in (0,1) mixes Puts into the loop
// (each op is a Get with that probability), and cells are labeled
// kvreadmostly/rNN instead of readrandom — the store-level view of the
// harness read-fraction knob, exercising the shared Get path for locks
// that offer RLock (rwlock.RWLocker).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/kvstore"
	"repro/internal/lockstat"
	"repro/internal/mutexbench"
	"repro/internal/registry"
	"repro/internal/table"
)

func main() {
	mode := flag.String("mode", "readrandom", "workload: readrandom (Figure 3), readwhilewriting, or predict (coarse-vs-sharded model)")
	readFrac := flag.Float64("read-frac", 0, "readrandom only: fraction of ops that are Gets, the rest Puts (0 = pure readrandom)")
	locksF := registry.NewLocksFlag("paper")
	flag.Var(locksF, "locks", registry.FlagUsage)
	keys := flag.Int("keys", 50_000, "keys preloaded by fillseq")
	shardsF := flag.String("shards", "1", "comma-separated shard counts (1 = the coarse central-mutex store)")
	bf := harness.Register(flag.CommandLine, harness.Spec{
		Runs:    3,
		Threads: "1,2,4,8,16,32",
	})
	lockstatOn := flag.Bool("lockstat", false, "instrument the store's lock(s) and attach per-lock telemetry to the report (sharded stores pool all shards into one snapshot)")
	flag.Parse()

	lfs, listed, err := locksF.Resolve(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if listed {
		return
	}
	if *mode != "readrandom" && *mode != "readwhilewriting" && *mode != "predict" {
		fmt.Fprintln(os.Stderr, "unknown -mode; want readrandom, readwhilewriting, or predict")
		os.Exit(2)
	}
	if *readFrac < 0 || *readFrac >= 1 {
		fmt.Fprintln(os.Stderr, "-read-frac must be in [0,1)")
		os.Exit(2)
	}
	if *readFrac > 0 && *mode != "readrandom" {
		fmt.Fprintln(os.Stderr, "-read-frac only applies to -mode=readrandom")
		os.Exit(2)
	}
	threads, err := bf.ThreadCounts()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shardCounts, err := harness.ParseThreads(*shardsF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-shards: %v\n", err)
		os.Exit(2)
	}
	d := bf.Duration
	if d <= 0 {
		d = 300 * time.Millisecond
	}

	out, closeOut, err := bf.OutputFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer closeOut()

	if *mode == "predict" {
		res := experiments.ShardPredictionResult(lfs, shardCounts, threads, d, *keys, bf.Runs, bf.Seed)
		if bf.JSON {
			if err := res.WriteJSON(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			return
		}
		fmt.Fprintln(out, experiments.TrackANote)
		render(experiments.ShardPredictionTable(res), out, bf.CSV)
		return
	}

	res := harness.NewResult("kvbench", "A", bf.Seed)
	res.SetConfig("mode", *mode)
	res.SetConfig("keys", strconv.Itoa(*keys))
	res.SetConfig("shards", *shardsF)
	res.SetConfig("duration", d.String())
	res.SetConfig("runs", strconv.Itoa(bf.Runs))
	// The workload base: kvreadmostly/rNN cells are distinct both from
	// readrandom ones and from mutexbench's readmostly/rNN (merge keys
	// ignore the harness, so the store-level cells need their own name
	// to coexist in a merged baseline).
	base := *mode
	if *readFrac > 0 {
		base = fmt.Sprintf("kvreadmostly/r%d", int(*readFrac*100+0.5))
		res.SetConfig("read_frac", strconv.FormatFloat(*readFrac, 'g', -1, 64))
	}

	for _, lf := range lfs {
		newLock := func() sync.Locker { return lf.New(nil) }
		var st *lockstat.Stats
		if *lockstatOn {
			st = lockstat.New()
			fac, err := lf.Factory(registry.WithStats(st))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			newLock = fac
			lockstat.InstallWaiterSink(st)
		}
		for _, sc := range shardCounts {
			workload := experiments.ShardWorkload(base, sc)
			for _, tc := range threads {
				cfg := kvstore.ReadRandomConfig{
					Threads:  tc,
					Keyspace: *keys,
					Duration: d,
					ReadFrac: *readFrac,
					Seed:     bf.Seed,
				}
				var m harness.Measurement
				if *mode == "readrandom" {
					m = experiments.KVShardedReadRandomMeasure(lf, newLock, sc, cfg, *keys, bf.Runs)
				} else {
					// Every run opens a fresh store; -runs is honored here
					// too (it used to be silently ignored in this mode).
					mk, sc := newLock, sc
					open := func(run harness.RunInfo) kvstore.Store {
						db := experiments.OpenKVStore(mk, sc)
						kvstore.FillSeq(db, *keys, 100)
						return db
					}
					w := kvstore.ReadWhileWritingWorkload(open, cfg, 100)
					m = harness.Measure(w, harness.Config{
						Threads:  tc,
						Duration: d,
						Warmup:   bf.Warmup,
						Runs:     bf.Runs,
						Seed:     bf.Seed,
					})
				}
				res.Add(harness.CellFromMeasurement(lf.Name, workload, mutexbench.Unit, m))
			}
		}
		if st != nil {
			lockstat.InstallWaiterSink(nil)
			lockstat.Publish("lockstat.kv."+lf.Name, st)
			if res.Lockstat == nil {
				res.Lockstat = map[string]lockstat.Snapshot{}
			}
			res.Lockstat[lf.Name] = st.Snapshot()
		}
	}

	if bf.JSON {
		if err := res.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	fmt.Fprintln(out, experiments.TrackANote)
	if *mode == "readrandom" {
		// Row labels carry the shard suffix ("Recipro/s4") so a shard
		// sweep gets one row per (lock, shard count) instead of
		// colliding on the lock name.
		t := harness.MatrixTableBy(res,
			fmt.Sprintf("Figure 3 — KV %s Mops/s over %d keys (median of %d; /sN = N shards)", base, *keys, bf.Runs),
			func(c harness.Cell) string {
				return c.Lock + strings.TrimPrefix(c.Workload, base)
			})
		render(t, out, bf.CSV)
	} else {
		t := table.New(fmt.Sprintf("KV readwhilewriting — readers + 1 writer over %d keys (median of %d)", *keys, bf.Runs),
			"Workload", "Lock", "Readers", "Read Mops/s", "Write ops")
		for _, c := range res.Cells {
			t.Add(c.Workload, c.Lock, table.I(int64(c.Threads)), table.F(c.Score, 3),
				table.U(uint64(c.Extras["writer_ops"])))
		}
		render(t, out, bf.CSV)
	}
	if *lockstatOn {
		fmt.Fprintln(out)
		var order []string
		for _, lf := range lfs {
			order = append(order, lf.Name)
		}
		lockstat.FprintReport(out, fmt.Sprintf("store lock telemetry (%s)", *mode), order, res.Lockstat, bf.CSV)
	}
}

func render(t *table.Table, out *os.File, csv bool) {
	if csv {
		t.RenderCSV(out)
	} else {
		t.Render(out)
	}
}
