package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/registry"
)

func TestShardWorkloadNaming(t *testing.T) {
	cases := []struct {
		shards int
		want   string
	}{
		{0, "readrandom"},
		{1, "readrandom"},
		{2, "readrandom/s2"},
		{16, "readrandom/s16"},
	}
	for _, c := range cases {
		if got := ShardWorkload("readrandom", c.shards); got != c.want {
			t.Errorf("ShardWorkload(readrandom, %d) = %q, want %q", c.shards, got, c.want)
		}
		if back := workloadShards(c.want); c.shards > 1 && back != c.shards {
			t.Errorf("workloadShards(%q) = %d, want %d", c.want, back, c.shards)
		}
	}
	if workloadShards("readrandom") != 1 || workloadShards("readrandom/sX") != 1 {
		t.Error("workloadShards should default malformed names to 1")
	}
}

// The saturation model's shape, independent of any measurement: more
// shards never predict less throughput, the serial bound binds at one
// shard, and the processor bound caps the thread axis.
func TestShardModelBounds(t *testing.T) {
	m := ShardModel{TauNS: 100, CritNS: 50, Procs: 8}
	prev := 0.0
	for _, s := range []int{1, 2, 4, 8, 16} {
		x := m.PredictMops(8, s)
		if x < prev {
			t.Errorf("prediction fell from %.3f to %.3f at S=%d", prev, x, s)
		}
		prev = x
	}
	// S=1: bound is 1/c = 0.02 ops/ns = 20 Mops.
	if x := m.PredictMops(8, 1); x != 20 {
		t.Errorf("S=1 serial bound = %.3f Mops, want 20", x)
	}
	// Unbounded shards: bound is min(T,P)/τ = 8/100 ops/ns = 80 Mops.
	if x := m.PredictMops(8, 1024); x != 80 {
		t.Errorf("compute bound = %.3f Mops, want 80", x)
	}
	// Threads beyond Procs add nothing.
	if m.PredictMops(64, 1024) != m.PredictMops(8, 1024) {
		t.Error("threads beyond GOMAXPROCS should not raise the prediction")
	}
	if (ShardModel{}).PredictMops(4, 4) != 0 {
		t.Error("uncalibrated model must predict 0")
	}
}

func TestCalibrateShardModelSmoke(t *testing.T) {
	e, ok := registry.Lookup("GoMutex")
	if !ok {
		t.Fatal("GoMutex not in catalog")
	}
	m := CalibrateShardModel(e, 2000)
	if m.TauNS <= 0 {
		t.Fatalf("calibration produced τ=%v", m.TauNS)
	}
	if m.CritNS <= 0 || m.CritNS > m.TauNS {
		t.Fatalf("c=%v outside (0, τ=%v]", m.CritNS, m.TauNS)
	}
	if m.Procs < 1 {
		t.Fatalf("Procs=%d", m.Procs)
	}
}

// End-to-end smoke of the prediction experiment: one lock, a tiny
// sweep, every cell carrying a positive score and the model extras,
// one cell per workload × lock × thread count.
func TestShardPredictionResultSmoke(t *testing.T) {
	e, ok := registry.Lookup("GoMutex")
	if !ok {
		t.Fatal("GoMutex not in catalog")
	}
	shards := []int{1, 4}
	threads := []int{1, 2}
	res := ShardPredictionResult([]registry.Entry{e}, shards, threads, 3*time.Millisecond, 2000, 1, 7)
	if res.Harness != "kvbench" {
		t.Fatalf("harness = %q", res.Harness)
	}
	if want := len(shards) * len(threads); len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	seen := map[string]bool{}
	for _, c := range res.Cells {
		key := fmt.Sprintf("%s|%s|T=%d", c.Workload, c.Lock, c.Threads)
		seen[key] = true
		if c.Score <= 0 {
			t.Errorf("%s: non-positive measured score %v", key, c.Score)
		}
		for _, k := range []string{"predicted_mops", "model_tau_ns", "model_crit_ns", "prediction_ratio"} {
			if c.Extras[k] <= 0 {
				t.Errorf("%s: extra %q = %v, want > 0", key, k, c.Extras[k])
			}
		}
	}
	if len(seen) != len(res.Cells) {
		t.Fatalf("duplicate cell keys: %d unique of %d", len(seen), len(res.Cells))
	}
	if tab := ShardPredictionTable(res); len(tab.Rows) != len(res.Cells) {
		t.Fatalf("table rows = %d, want %d", len(tab.Rows), len(res.Cells))
	}
}

// The sharded measurement path must go through the shared engine and
// produce a defined median for shards > 1 (the coarse path is covered
// by the existing kvstore smoke tests).
func TestKVShardedReadRandomMeasureSmoke(t *testing.T) {
	e, ok := registry.Lookup("MCS")
	if !ok {
		t.Fatal("MCS not in catalog")
	}
	m := KVShardedReadRandomMeasure(e, nil, 4, kvstore.ReadRandomConfig{
		Threads:  2,
		Keyspace: 2000,
		Duration: 3 * time.Millisecond,
		Seed:     7,
	}, 2000, 1)
	if m.Median <= 0 {
		t.Fatalf("sharded readrandom median = %v", m.Median)
	}
}
