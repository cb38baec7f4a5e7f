package main

import (
	"sync"

	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/stats"
)

// ladderSteps build the workload's lock with one more stage of the
// registry decorator pipeline per step, so adjacent steps price one
// stage.
var ladderSteps = []struct {
	name string
	opts func() []registry.Option
}{
	{"base", func() []registry.Option { return nil }},
	{"veto", func() []registry.Option {
		return []registry.Option{registry.WithChaosVeto("")}
	}},
	{"bounded", func() []registry.Option {
		return []registry.Option{registry.WithChaosVeto(""), registry.WithBounded()}
	}},
	{"stats_nil", func() []registry.Option {
		return []registry.Option{registry.WithChaosVeto(""), registry.WithBounded(), registry.WithStats(nil)}
	}},
	{"stats_live", func() []registry.Option {
		return []registry.Option{registry.WithChaosVeto(""), registry.WithBounded(), registry.WithStats(lockstat.New())}
	}},
}

// ladder times uncontended Lock/Unlock episodes on one goroutine for
// every step and returns the median nanoseconds per episode. Steps are
// interleaved within each repetition so drift hits them alike; the
// first repetition only warms up.
func ladder(lockName string) (map[string]float64, error) {
	const episodes, reps = 100_000, 7
	locks := make([]sync.Locker, len(ladderSteps))
	for i, st := range ladderSteps {
		l, err := registry.Build(lockName, st.opts()...)
		if err != nil {
			return nil, err
		}
		locks[i] = l
	}
	samples := make([][]float64, len(locks))
	for r := 0; r <= reps; r++ {
		for i, l := range locks {
			t0 := now()
			for n := 0; n < episodes; n++ {
				l.Lock()
				l.Unlock()
			}
			if r > 0 {
				samples[i] = append(samples[i], float64(now()-t0)/episodes)
			}
		}
	}
	out := make(map[string]float64, len(locks))
	for i, st := range ladderSteps {
		out[st.name] = stats.Median(samples[i])
	}
	return out, nil
}
