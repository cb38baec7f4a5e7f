// Package explore adapts the cluster simulation to the shared schedule
// search (internal/explore): it enumerates the delivery and timer
// orders a Config.Scheduler can impose, replaying the deterministic
// simulation once per schedule and running the full invariant battery
// at every leaf. Branch points are dispatches where two or more
// normal-band events are ready; sleep sets prune with the Independent
// relation below.
//
// Independence is deliberately conservative. Two ready events commute
// only when they carry the same timestamp and target distinct
// endpoints (and neither is fault-band or global): the simulation
// clock clamps to the dispatched event's time, so reordering events
// with different stamps changes the time every downstream handler
// observes — execution time is part of the state, and only equal-time
// events truly commute. Endpoint granularity (not (endpoint, shard))
// is forced by node-global state: a node's write-log position and
// outbox are shared across its shards, so two deliveries to the same
// node never commute even on different shards.
//
// Even that relation is sound only when dispatch order cannot change
// what anything draws from the shared PRNG stream: Prunable requires
// Config.SplitRNG (per-node streams), disabled network jitter, and a
// fault script whose rules never roll the dice (see Prunable). For any
// other configuration the search still enumerates correctly — it just
// keeps sleep sets empty and explores the full tree.
package explore

import (
	"errors"

	"repro/internal/cluster"
	search "repro/internal/explore"
)

// Options configures one search: the simulation under test plus the
// shared search bounds. Config.Scheduler is owned by the search.
type Options struct {
	Config cluster.Config
	search.Options
}

// DefaultOptions is an exhaustive (unbounded-delay, default-budget)
// search over cfg.
func DefaultOptions(cfg cluster.Config) Options {
	return Options{Config: cfg, Options: search.Options{Delays: search.Unbounded}}
}

// Result is one search's outcome; Violation is the first violating
// run, nil if none.
type Result struct {
	search.Result
	Violation *cluster.Result
}

// Independent reports whether two ready events commute: equal
// timestamps, distinct non-global endpoints, neither fault-band. See
// the package comment for why both conditions are load-bearing.
func Independent(a, b cluster.ReadyEvent) bool {
	if a.Fault || b.Fault {
		return false
	}
	if a.Endpoint == cluster.AnyEndpoint || b.Endpoint == cluster.AnyEndpoint {
		return false
	}
	if a.At != b.At {
		return false
	}
	return a.Endpoint != b.Endpoint
}

// Prunable reports whether sleep-set pruning is sound for cfg: every
// PRNG draw must be unaffected by dispatch order. That needs per-node
// streams (SplitRNG), explicitly disabled network jitter (negative
// NetJitter — zero would select the default), and a script none of
// whose rules consume shared-stream randomness: drop with 0<p<1 rolls
// per message, dup with p>0 draws an extra-copy delay, delay with a
// nonzero range draws from it. (Drop with p exactly 0 or 1 and all
// non-link faults are deterministic.)
func Prunable(cfg cluster.Config) bool {
	if !cfg.SplitRNG || cfg.NetJitter >= 0 {
		return false
	}
	if cfg.Script == nil {
		return true
	}
	for _, st := range cfg.Script.Steps {
		switch st.Kind {
		case cluster.StepDrop:
			if st.P > 0 && st.P < 1 {
				return false
			}
		case cluster.StepDup:
			if st.P > 0 {
				return false
			}
		case cluster.StepDelay:
			if st.DelayMax > 0 {
				return false
			}
		}
	}
	return true
}

// errAbandoned unwinds cluster.Run when the search abandons a run.
var errAbandoned = errors.New("explore: run abandoned")

// Search runs the model checker. Sleep-set pruning is on when Prunable
// allows it and NoPrune is unset. It returns an error only for invalid
// configuration or a broken determinism contract; violations come back
// in Result.
func Search(opts Options) (*Result, error) {
	var indep func(a, b cluster.ReadyEvent) bool
	if Prunable(opts.Config) {
		indep = Independent
	}
	var last *cluster.Result
	run := func(choose func([]cluster.ReadyEvent) int) (bool, error) {
		cfg := opts.Config
		cfg.Scheduler = func(ready []cluster.ReadyEvent) int {
			j := choose(ready)
			if j < 0 {
				panic(errAbandoned)
			}
			return j
		}
		defer func() {
			if r := recover(); r != nil && r != errAbandoned {
				panic(r)
			}
		}()
		res, err := cluster.Run(cfg)
		if err != nil {
			return false, err
		}
		last = res
		return len(res.Violations) > 0, nil
	}
	res, err := search.Search(opts.Options, run, indep)
	if err != nil {
		return nil, err
	}
	out := &Result{Result: *res}
	if res.Failed {
		out.Violation = last
	}
	return out, nil
}

// Replay runs cfg once under the given branch-choice schedule. An
// empty (or nil) schedule is the canonical order.
func Replay(cfg cluster.Config, schedule []int) (*cluster.Result, error) {
	cfg.Scheduler = search.FixedSchedule[cluster.ReadyEvent](schedule)
	return cluster.Run(cfg)
}
