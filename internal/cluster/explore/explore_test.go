package explore

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	search "repro/internal/explore"
)

// smallCfg returns the explore-small preset with the given seed and
// optional canonical script.
func smallCfg(t *testing.T, seed uint64, scriptName string) cluster.Config {
	t.Helper()
	cfg, err := cluster.Preset("explore-small")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	if scriptName != "" {
		sc, err := cluster.LoadScript(scriptName)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Script = sc
	}
	return cfg
}

// huntCfg is the mutation-hunt configuration: the expire-churn-tiny
// script with the schedule window widened to one network delay, so
// retransmit-versus-ack reorders are in scope (see the preset comment).
func huntCfg(t *testing.T, seed uint64) cluster.Config {
	cfg := smallCfg(t, seed, "expire-churn-tiny")
	cfg.ScheduleWindow = time.Millisecond
	return cfg
}

// TestExploreSmallVerified pins the tentpole's clean half: the honest
// protocol survives exhaustive schedule enumeration on the small
// preset — bare and under the tiny churn script — and the wider
// delay-bounded hunt, all VERIFIED (complete, uncapped, no violation).
func TestExploreSmallVerified(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res, err := Search(DefaultOptions(smallCfg(t, seed, "")))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified() {
			t.Errorf("seed %d bare: not verified: %+v", seed, res.Stats)
		}
		if !res.Pruning {
			t.Errorf("seed %d: preset should be prunable", seed)
		}
	}
	res, err := Search(DefaultOptions(smallCfg(t, 1, "expire-churn-tiny")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified() {
		t.Errorf("script exhaustive: not verified: %+v", res.Stats)
	}

	opts := DefaultOptions(huntCfg(t, 1))
	opts.Delays = 2
	hres, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Violation != nil {
		t.Errorf("honest hunt found a violation:\n%s", hres.Violation.FailureReport(""))
	}
	if !hres.Complete {
		t.Errorf("honest hunt did not exhaust its bound: %+v", hres.Stats)
	}
}

// TestExploreDeterministic pins that the search is a pure function of
// its options: identical stats on a clean tree, identical violating
// schedule on a mutated one.
func TestExploreDeterministic(t *testing.T) {
	a, err := Search(DefaultOptions(smallCfg(t, 3, "")))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(DefaultOptions(smallCfg(t, 3, "")))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ across identical searches:\n%+v\n%+v", a.Stats, b.Stats)
	}

	mut := func() *Result {
		cfg := huntCfg(t, 1)
		cfg.BreakDedup = true
		opts := DefaultOptions(cfg)
		opts.Delays = 2
		r, err := Search(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := mut(), mut()
	if r1.Violation == nil || r2.Violation == nil {
		t.Fatal("mutation search found nothing")
	}
	if !reflect.DeepEqual(r1.Schedule, r2.Schedule) {
		t.Errorf("violating schedules differ: %v vs %v", r1.Schedule, r2.Schedule)
	}
	if r1.Violation.Violations[0].String() != r2.Violation.Violations[0].String() {
		t.Errorf("violations differ: %s vs %s", r1.Violation.Violations[0], r2.Violation.Violations[0])
	}
}

// TestExploreCanonicalEquivalence pins the scheduler-hook contract: a
// controller that always defers to the canonical choice produces a
// byte-identical trace to running with no Scheduler at all.
func TestExploreCanonicalEquivalence(t *testing.T) {
	for _, script := range []string{"", "expire-churn-tiny"} {
		plain, err := cluster.Run(smallCfg(t, 1, script))
		if err != nil {
			t.Fatal(err)
		}
		scheduled, err := Replay(smallCfg(t, 1, script), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Trace, scheduled.Trace) {
			t.Errorf("script=%q: canonical scheduler diverged from plain run", script)
		}
		if plain.FinalState != scheduled.FinalState {
			t.Errorf("script=%q: final states differ", script)
		}
	}
}

// TestExploreDelayZero pins the delay-bound floor: a budget of zero
// delays explores exactly the canonical schedule.
func TestExploreDelayZero(t *testing.T) {
	opts := DefaultOptions(smallCfg(t, 3, ""))
	opts.Delays = 0
	res, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Schedules != 1 {
		t.Errorf("Delays=0 ran %d schedules, want exactly 1", res.Stats.Schedules)
	}
	if !res.Complete || res.Violation != nil {
		t.Errorf("Delays=0 should complete cleanly: %+v", res)
	}
}

// TestExploreBudgetIncomplete pins budget exhaustion: a tree larger
// than the budget reports an incomplete (unverified) clean search.
func TestExploreBudgetIncomplete(t *testing.T) {
	opts := DefaultOptions(smallCfg(t, 3, ""))
	opts.Budget = 5
	res, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation:\n%s", res.Violation.FailureReport(""))
	}
	if res.Complete || res.Verified() {
		t.Errorf("budget-capped search must be incomplete: %+v", res.Stats)
	}
	if res.Stats.Schedules > 5 {
		t.Errorf("ran %d schedules past a budget of 5", res.Stats.Schedules)
	}
}

// TestExploreMaxBranch pins depth capping: truncating the tree keeps
// the search from claiming VERIFIED.
func TestExploreMaxBranch(t *testing.T) {
	opts := DefaultOptions(smallCfg(t, 3, ""))
	opts.MaxBranch = 2
	res, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation:\n%s", res.Violation.FailureReport(""))
	}
	if !res.DepthCapped {
		t.Error("MaxBranch=2 search should report DepthCapped")
	}
	if res.Verified() {
		t.Error("depth-capped search must not verify")
	}
	if res.Stats.MaxDepth > 2 {
		t.Errorf("stack grew to %d past MaxBranch=2", res.Stats.MaxDepth)
	}
}

// TestFaultDispatchWakesSleepers pins the wake-up rule the forced
// dispatch path relies on: a fault-band event is dependent with
// everything, so the shared search's sleep-set filter empties the set
// when a fault or heal is dispatched. Leaving events asleep across a
// fault would wrongly prune schedules that reorder normal events
// around the fault's timestamp — exactly where violations live.
func TestFaultDispatchWakesSleepers(t *testing.T) {
	a := cluster.ReadyEvent{At: time.Millisecond, Endpoint: 0, Desc: "timer@1ms n0 write s0 g1 w0"}
	b := cluster.ReadyEvent{At: time.Millisecond, Endpoint: 1, Deliver: true, Desc: "deliver@1ms x"}
	for _, forced := range []cluster.ReadyEvent{
		{At: time.Millisecond, Fault: true, Endpoint: cluster.AnyEndpoint, Desc: "fault@1ms step 0"},
		{At: time.Millisecond, Fault: true, Endpoint: cluster.AnyEndpoint, Desc: "heal@1ms"},
	} {
		for _, sleeper := range []cluster.ReadyEvent{a, b} {
			if Independent(sleeper, forced) || Independent(forced, sleeper) {
				t.Errorf("%q stays asleep across %q", sleeper.Desc, forced.Desc)
			}
		}
	}
	// Sanity: a dispatch independent of both sleepers keeps them.
	other := cluster.ReadyEvent{At: time.Millisecond, Endpoint: 2, Desc: "timer@1ms n2 x"}
	if !Independent(a, other) || !Independent(b, other) {
		t.Errorf("independent sleepers woken by %q", other.Desc)
	}
}

// TestPruningAgreesWithUnpruned is the sleep-set soundness net over
// fault scripts: on hunts whose schedules cross fault-band dispatches
// (expire-churn-tiny fires twice inside the horizon), the pruned and
// unpruned searches must reach the same verdict — same completeness
// on the honest build, same violation class under every planted
// mutation. A pruning bug that silently skips schedules near fault
// timestamps shows up here as a verdict mismatch.
func TestPruningAgreesWithUnpruned(t *testing.T) {
	run := func(mutate func(*cluster.Config), noPrune bool) *Result {
		cfg := huntCfg(t, 1)
		if mutate != nil {
			mutate(&cfg)
		}
		opts := DefaultOptions(cfg)
		opts.Delays = 2
		opts.NoPrune = noPrune
		res, err := Search(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	honest, honestFull := run(nil, false), run(nil, true)
	if !honest.Pruning || honestFull.Pruning {
		t.Fatalf("pruning flags: pruned=%v unpruned=%v", honest.Pruning, honestFull.Pruning)
	}
	if honest.Violation != nil || honestFull.Violation != nil {
		t.Fatal("honest hunt found a violation")
	}
	if honest.Complete != honestFull.Complete {
		t.Errorf("completeness disagrees: pruned=%v unpruned=%v", honest.Complete, honestFull.Complete)
	}
	if honest.Stats.Schedules > honestFull.Stats.Schedules {
		t.Errorf("pruned search ran MORE schedules (%d) than unpruned (%d)",
			honest.Stats.Schedules, honestFull.Stats.Schedules)
	}

	for _, m := range mutations {
		pruned, full := run(m.apply, false), run(m.apply, true)
		if pruned.Violation == nil || full.Violation == nil {
			t.Fatalf("%s: violation missed (pruned=%v unpruned=%v)",
				m.name, pruned.Violation != nil, full.Violation != nil)
		}
		pc := pruned.Violation.Violations[0].Class
		fc := full.Violation.Violations[0].Class
		if pc != m.class || fc != m.class {
			t.Errorf("%s: classes pruned=%s unpruned=%s, want %s", m.name, pc, fc, m.class)
		}
	}
}

// TestPrunable pins the soundness guard for sleep-set pruning.
func TestPrunable(t *testing.T) {
	base := smallCfg(t, 1, "")
	if !Prunable(base) {
		t.Error("preset should be prunable")
	}
	c := base
	c.SplitRNG = false
	if Prunable(c) {
		t.Error("shared RNG must not be prunable")
	}
	c = base
	c.NetJitter = 0 // zero selects the jittered default
	if Prunable(c) {
		t.Error("defaulted jitter must not be prunable")
	}
	for _, tc := range []struct {
		script string
		want   bool
	}{
		{"at 1ms drop n0->n1 p=0.5 for 5ms", false},
		{"at 1ms dup n0->n1 p=0.1 for 5ms", false},
		{"at 1ms delay n0->n1 1ms..2ms for 5ms", false},
		{"at 1ms drop n0->n1 p=1 for 5ms", true},
		{"at 1ms cut n0->n1 for 5ms\nat 2ms expire shard 0\nat 3ms crash n0", true},
	} {
		sc, err := cluster.ParseScript(tc.script)
		if err != nil {
			t.Fatal(err)
		}
		c = base
		c.Script = sc
		if got := Prunable(c); got != tc.want {
			t.Errorf("Prunable(%q) = %v, want %v", strings.TrimSpace(tc.script), got, tc.want)
		}
	}
}

// TestScheduleRoundTrip pins the textual schedule form used on repro
// lines.
func TestScheduleRoundTrip(t *testing.T) {
	for _, sched := range [][]int{nil, {0}, {2, 0, 1}, {0, 0, 0, 5}} {
		got, err := search.ParseSchedule(search.FormatSchedule(sched))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sched) {
			t.Fatalf("round-trip %v -> %v", sched, got)
		}
		for i := range got {
			if got[i] != sched[i] {
				t.Fatalf("round-trip %v -> %v", sched, got)
			}
		}
	}
	for _, bad := range []string{"1,-2", "a", "1,,2"} {
		if _, err := search.ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", bad)
		}
	}
}
