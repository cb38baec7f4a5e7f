package simlocks

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/explore"
)

// exploreLock exhaustively model-checks a simulated lock with the
// shared schedule search: every interleaving, up to reordering of
// independent operations, must preserve mutual exclusion (no lost
// counter increments), reach completion (no deadlock or livelock) and
// respect the MESI invariants, and the tree must be exhausted.
func exploreLock(t *testing.T, mk Factory, threads, episodes int) *explore.Result {
	t.Helper()
	prog := CounterProgram(mk, threads, episodes)
	res, err := explore.Search(explore.Options{Budget: -1, Delays: explore.Unbounded}, prog.Run, coherence.Independent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("%s %dx%d: violation after %d schedules: %v\nschedule: %v",
			mk().Name(), threads, episodes, res.Stats.Schedules, prog.Violation, res.Schedule)
	}
	if !res.Verified() {
		t.Fatalf("%s %dx%d: tree not exhausted: %+v", mk().Name(), threads, episodes, res.Stats)
	}
	t.Logf("%s %dx%d: %d schedules, %d pruned tails", mk().Name(), threads, episodes,
		res.Stats.Schedules, res.Stats.PrunedTails)
	return res
}

// exploreSmall checks the configurations every catalog lock is proved
// at: an arrival race (2×1), recirculation with a second episode (2×2)
// and a third thread, which segments, reciprocation and Table 2's
// palindromic admission need (3×1).
func exploreSmall(t *testing.T, mk Factory) {
	for _, cfg := range []struct{ threads, episodes int }{{2, 1}, {2, 2}, {3, 1}} {
		exploreLock(t, mk, cfg.threads, cfg.episodes)
	}
}

// Exhaustive model checking of the Reciprocating Lock at 2 threads ×
// 1 episode: every interleaving of an arrival race, contended handoff,
// and uncontended episode is covered completely.
func TestExploreReciprocatingExhaustive(t *testing.T) {
	exploreLock(t, ByName("Recipro"), 2, 1)
}

// The Reciprocating Lock at the bounds past the catalog's: four
// threads (segments of three waiters) and three threads over two
// episodes (an arrival segment forming while the entry segment
// drains). The 3×2 search abandons tens of thousands of pruned runs
// mid-way; none may leave a simulated thread's goroutine behind.
func TestExploreReciprocatingBounded(t *testing.T) {
	exploreLock(t, ByName("Recipro"), 4, 1)

	before := runtime.NumGoroutine()
	res := exploreLock(t, ByName("Recipro"), 3, 2)
	if res.Stats.PrunedTails == 0 {
		t.Fatal("3x2 search pruned nothing: the goroutine check below proves nothing")
	}
	// Released goroutines exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the search, %d after: simulated threads leaked", before, after)
	}
}

// Every simulated Reciprocating variant and fairness mitigation passes
// the same exhaustive checks.
func TestExploreVariants(t *testing.T) {
	for _, mk := range append(Variants(), FairnessVariants()...) {
		mk := mk
		t.Run(mk().Name(), func(t *testing.T) { exploreSmall(t, mk) })
	}
}

// The Table 1 locks, exhaustively at the same bounds: any violation or
// unexhausted tree fails the test.
func TestExploreBaselinesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking sweep")
	}
	for _, mk := range All() {
		mk := mk
		t.Run(mk().Name(), func(t *testing.T) { exploreSmall(t, mk) })
	}
}

// selfGrantRecipro is sim Recipro with a planted detach bug: the
// releaser that detaches the arrival segment grants its first waiter
// that waiter's own gate as the end-of-segment address, instead of
// the releaser's eos. The waiter then takes itself for the segment's
// end and drops its successors.
type selfGrantRecipro struct{ Recipro }

func (l *selfGrantRecipro) Release(c *coherence.Ctx, tid int) {
	succ, eos := l.succ[tid], l.eos[tid]
	if succ != 0 {
		c.Store(coherence.Addr(succ), eos)
		return
	}
	if c.CAS(l.arrivals, eos, 0) {
		return
	}
	w := c.Swap(l.arrivals, simLockedEmpty)
	c.Store(coherence.Addr(w), w)
}

// TestExploreFindsSelfGrantMutant is the lock-level mutation hunt: the
// planted detach bug passes every 2-thread schedule — a detached
// segment needs two waiters behind the holder to go wrong, which is
// why the proof needs three threads — and the 3-thread search catches
// it as a deadlock. The shared shrinker then reduces the failing
// schedule, and replaying the shrunk schedule reproduces the deadlock.
func TestExploreFindsSelfGrantMutant(t *testing.T) {
	mk := func() Lock { return &selfGrantRecipro{} }
	exploreLock(t, mk, 2, 1)

	prog := CounterProgram(mk, 3, 1)
	res, err := explore.Search(explore.Options{Delays: explore.Unbounded}, prog.Run, coherence.Independent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || !strings.Contains(prog.Violation.Error(), "deadlock") {
		t.Fatalf("3x1 search missed the mutant: %+v (violation %v)", res.Stats, prog.Violation)
	}
	want := prog.Violation.Error()
	t.Logf("caught after %d schedules: %v (schedule %v)", res.Stats.Schedules, want, res.Schedule)

	fails := func(sched []int) bool {
		failed, err := explore.Replay(prog.Run, sched)
		return err == nil && failed && prog.Violation.Error() == want
	}
	shrunk := explore.Shrink(res.Schedule, fails)
	if len(shrunk) >= len(res.Schedule) {
		t.Fatalf("shrinker kept all of %v (got %v)", res.Schedule, shrunk)
	}
	if !fails(shrunk) {
		t.Fatalf("shrunk schedule %v does not reproduce %q (got %v)", shrunk, want, prog.Violation)
	}
	t.Logf("shrunk %v to %v", res.Schedule, shrunk)
}
