package conformance

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/registry"
)

// Conformance tests must not run in parallel: the suite owns two
// process-global knobs — the waiter sink (real.go swaps in an
// ArrivalProbe per arrival) and the chaos switch (CheckBounded and
// CheckAbandonment arm it). t.Parallel here would cross-contaminate
// entries.

// testOptions scales the suite to the test tier: plain `go test`
// (tier-1) runs a moderate profile, -short drops to a smoke profile,
// and the full 100-schedule differential tier lives in
// `make conformance` (cmd/conformance).
func testOptions() Options {
	if testing.Short() {
		return Options{Seed: 1, Goroutines: 4, Iters: 150, Schedules: 8}
	}
	return Options{Seed: 1, Goroutines: 8, Iters: 600, Schedules: 25}
}

// Every catalog entry — both tracks' registry surface — must pass the
// whole suite: mutual exclusion, TryLock soundness, the bounded
// contract (plain and under chaos), abandonment safety, unlock
// discipline, and (for twin-declaring entries) the differential
// checker.
func TestSuiteAllEntries(t *testing.T) {
	o := testOptions()
	for _, e := range registry.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			r := Run(e, o)
			for _, c := range r.Results {
				switch {
				case c.Err == nil:
				case Skipped(c.Err):
					t.Logf("%s: skip: %v", c.Check, c.Err)
				default:
					t.Errorf("%s: %v", c.Check, c.Err)
				}
			}
			if r.Diff != nil && !r.Failed() {
				t.Logf("differential: %d schedules, %d events, max bypass %d, %d detaches",
					r.Diff.Schedules, r.Diff.Events, r.Diff.MaxBypass, r.Diff.Detaches)
			}
		})
	}
}

// nopLocker admits everyone at once.
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// TestMutualExclusionDetectsBrokenLock proves the mutex check has
// teeth: a no-op "lock" must fail it, not pass or skip.
func TestMutualExclusionDetectsBrokenLock(t *testing.T) {
	if raceEnabled {
		t.Skip("intentionally races the guarded counter; the detector would (correctly) flag it")
	}
	e := registry.Entry{
		Name:   "nop",
		Family: registry.FamilySpin,
		New:    func(clock.Clock) sync.Locker { return nopLocker{} },
	}
	err := CheckMutualExclusion(e, testOptions())
	if err == nil {
		t.Fatal("CheckMutualExclusion passed a no-op lock")
	}
	if Skipped(err) {
		t.Fatalf("no-op lock was skipped, not failed: %v", err)
	}
}
