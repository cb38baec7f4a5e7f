package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/harness"
	"repro/internal/kvstore"
	"repro/internal/mutexbench"
	"repro/internal/registry"
	"repro/internal/table"
)

// This file reproduces the core of "Performance Prediction for
// Coarse-Grained Locking" (PAPERS.md) for the kvstore shard sweep: a
// two-parameter analytic model calibrated from one single-threaded
// run on the coarse store, then compared against measured throughput
// at every (shard count × thread count) point.
//
// Model. Each readrandom operation takes τ ns of total service time,
// of which c ns execute under the store's lock (Get acquires twice:
// the snapshot and the statistics update). With uniformly hashed keys
// over S shards and T worker goroutines on P processors, throughput
// is bounded by the compute bandwidth and by the aggregate serial
// bandwidth of the shards:
//
//	X(T,S) ≤ min(T, P)/τ    (workers, processors)
//	X(T,S) ≤ S/c            (each shard serializes c per op it owns)
//
// and the prediction is the smaller bound. This is the saturation
// skeleton of the paper's queueing model: it ignores queueing delay
// near the knee and hash imbalance, so it over-predicts slightly at
// the crossover — exactly the gap the predicted-vs-measured figure is
// meant to expose.

// ShardModel holds the calibrated model inputs for one lock.
type ShardModel struct {
	// TauNS is the per-operation service time at T=1, S=1.
	TauNS float64
	// CritNS is the per-operation lock-held time at T=1, S=1.
	CritNS float64
	// Procs is GOMAXPROCS at calibration time.
	Procs int
}

// PredictMops predicts readrandom throughput (Mops/s) at the given
// worker and shard counts.
func (m ShardModel) PredictMops(threads, shards int) float64 {
	if m.TauNS <= 0 {
		return 0
	}
	workers := float64(threads)
	if p := float64(m.Procs); p < workers {
		workers = p
	}
	x := workers / m.TauNS // ops per ns
	if m.CritNS > 0 {
		if serial := float64(shards) / m.CritNS; serial < x {
			x = serial
		}
	}
	return x * 1000 // ops/ns → Mops/s
}

// holdTimer measures the wall time a lock is held. It is a
// calibration-only wrapper: the single-threaded calibration run is the
// only writer, so plain fields suffice and the timer adds no
// synchronization of its own.
type holdTimer struct {
	inner  sync.Locker
	heldNS int64
	acqs   int64
	t0     time.Duration
}

func (h *holdTimer) Lock() {
	h.inner.Lock()
	h.t0 = clock.Wall.Now()
}

func (h *holdTimer) Unlock() {
	h.heldNS += (clock.Wall.Now() - h.t0).Nanoseconds()
	h.acqs++
	h.inner.Unlock()
}

func (h *holdTimer) reset() { h.heldNS, h.acqs = 0, 0 }

// CalibrateShardModel measures τ and c for one catalog lock with a
// single-threaded readrandom run over a coarse store. The hold timer
// brackets every acquisition, so c includes both of Get's critical
// sections; timer overhead inflates τ and c together, keeping their
// ratio — what the prediction hinges on — honest.
func CalibrateShardModel(lf registry.Entry, keys int, dur time.Duration) ShardModel {
	if keys <= 0 {
		keys = 50_000
	}
	if dur <= 0 {
		dur = 100 * time.Millisecond
	}
	ht := &holdTimer{inner: lf.New(nil)}
	db := kvstore.Open(kvstore.Options{Lock: ht, MemTableBytes: kvMemTableBytes})
	kvstore.FillSeq(db, keys, 100)
	ht.reset() // exclude the fill's acquisitions from the model
	res := kvstore.ReadRandom(db, kvstore.ReadRandomConfig{
		Threads:  1,
		Keyspace: keys,
		Duration: dur,
	})
	m := ShardModel{Procs: runtime.GOMAXPROCS(0)}
	if res.Mops > 0 {
		m.TauNS = 1000 / res.Mops // Mops/s → ns per op
	}
	// Get acquires twice per operation, so ops = acqs/2; heldNS/ops is
	// then per-op critical time, independent of the engine's
	// measurement-window bounds.
	if ht.acqs > 0 {
		m.CritNS = 2 * float64(ht.heldNS) / float64(ht.acqs)
	}
	if m.CritNS > m.TauNS && m.TauNS > 0 {
		m.CritNS = m.TauNS // c is a fraction of τ by definition
	}
	return m
}

// ShardPredictionResult runs the coarse-vs-sharded prediction
// experiment: for each selected lock it calibrates the model once,
// then measures readrandom at every shard count × thread count and
// emits one harness cell per point — measured throughput as the
// score (so cmd/benchdiff gates it like any other cell) with the
// prediction and model parameters as extras.
func ShardPredictionResult(lfs []registry.Entry, shardCounts, threads []int, dur time.Duration, keys, runs int, seed uint64) *harness.Result {
	if dur <= 0 {
		dur = 100 * time.Millisecond
	}
	if keys <= 0 {
		keys = 50_000
	}
	if runs <= 0 {
		runs = 3
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8, 16}
	}
	if len(threads) == 0 {
		threads = defaultThreads()
	}
	res := harness.NewResult("kvbench", "A", seed)
	res.SetConfig("mode", "predict")
	res.SetConfig("duration", dur.String())
	res.SetConfig("keys", strconv.Itoa(keys))
	res.SetConfig("runs", strconv.Itoa(runs))
	res.SetConfig("shards", intList(shardCounts))
	for _, lf := range lfs {
		model := CalibrateShardModel(lf, keys, dur)
		for _, sc := range shardCounts {
			for _, tc := range threads {
				m := KVShardedReadRandomMeasure(lf, nil, sc, kvstore.ReadRandomConfig{
					Threads:  tc,
					Keyspace: keys,
					Duration: dur,
					Seed:     seed,
				}, keys, runs)
				cell := harness.CellFromMeasurement(lf.Name, ShardWorkload("readrandom", sc), mutexbench.Unit, m)
				if cell.Extras == nil {
					cell.Extras = map[string]float64{}
				}
				pred := model.PredictMops(tc, sc)
				cell.Extras["predicted_mops"] = pred
				cell.Extras["model_tau_ns"] = model.TauNS
				cell.Extras["model_crit_ns"] = model.CritNS
				if pred > 0 {
					cell.Extras["prediction_ratio"] = cell.Score / pred
				}
				res.Add(cell)
			}
		}
	}
	return res
}

// ShardPredictionTable renders a prediction result as a
// predicted-vs-measured table.
func ShardPredictionTable(res *harness.Result) *table.Table {
	t := table.New("Coarse vs sharded — predicted and measured readrandom Mops/s (model: min(min(T,P)/τ, S/c))",
		"Lock", "Shards", "Threads", "Measured", "Predicted", "Meas/Pred")
	for _, c := range res.Cells {
		t.Add(c.Lock,
			table.I(int64(workloadShards(c.Workload))),
			table.I(int64(c.Threads)),
			table.F(c.Score, 3),
			table.F(c.Extras["predicted_mops"], 3),
			table.F(c.Extras["prediction_ratio"], 2))
	}
	return t
}

// workloadShards parses the shard count back out of a ShardWorkload
// name ("readrandom" → 1, "readrandom/s8" → 8).
func workloadShards(workload string) int {
	i := strings.LastIndex(workload, "/s")
	if i < 0 {
		return 1
	}
	n, err := strconv.Atoi(workload[i+2:])
	if err != nil || n < 1 {
		return 1
	}
	return n
}

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
