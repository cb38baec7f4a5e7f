package conformance

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/registry"
)

// brokenEntry fabricates a catalog-shaped entry around an arbitrary
// locker so the shard checks can be shown to actually detect defects,
// not just rubber-stamp the catalog.
func brokenEntry(name string, mk func() sync.Locker) registry.Entry {
	return registry.Entry{
		Name:    name,
		Family:  registry.FamilySpin,
		SimTwin: "TKT", // opt in to the shard checks; never resolved by them
		New:     func(clock.Clock) sync.Locker { return mk() },
	}
}

// nopLocker admits everyone at once.
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// TestShardedChecksDetectBrokenLock proves the per-shard
// mutual-exclusion property has teeth: a no-op "lock" must trip the
// AdmissionLog overlap detector on at least one shard.
func TestShardedChecksDetectBrokenLock(t *testing.T) {
	if raceEnabled {
		t.Skip("intentionally races store state; the detector would (correctly) flag it")
	}
	e := brokenEntry("nop", func() sync.Locker { return nopLocker{} })
	o := testOptions()
	o.Goroutines = 8
	o.Iters = 4000
	err := CheckShardedMutualExclusion(e, o)
	if err == nil {
		t.Fatalf("CheckShardedMutualExclusion passed a no-op lock")
	}
	if Skipped(err) {
		t.Fatalf("no-op lock was skipped, not failed: %v", err)
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Errorf("failure should name the offending shard: %v", err)
	}
}

// TestShardedChecksSkipWithoutSimTwin pins the gating rule: entries
// outside the SimTwin subset are skipped by both shard checks, so
// `make conformance` time stays proportionate to the verified subset.
func TestShardedChecksSkipWithoutSimTwin(t *testing.T) {
	var plain registry.Entry
	for _, e := range registry.All() {
		if e.SimTwin == "" {
			plain = e
			break
		}
	}
	if plain.Name == "" {
		t.Skip("catalog has no non-SimTwin entry")
	}
	if err := CheckShardedMutualExclusion(plain, testOptions()); !Skipped(err) {
		t.Errorf("shard-mutex on %s: got %v, want skip", plain.Name, err)
	}
	if err := CheckShardedIterator(plain, testOptions()); !Skipped(err) {
		t.Errorf("shard-iter on %s: got %v, want skip", plain.Name, err)
	}
}

// TestShardedIteratorWithRealLock runs the torn-batch property against
// one real catalog lock directly (the full matrix runs via
// TestSuiteAllEntries); this keeps a fast, focused repro entry point
// when the property regresses.
func TestShardedIteratorWithRealLock(t *testing.T) {
	e, ok := registry.Lookup("Recipro")
	if !ok {
		t.Fatal("Recipro not in catalog")
	}
	if err := CheckShardedIterator(e, testOptions()); err != nil {
		t.Fatalf("CheckShardedIterator(Recipro): %v", err)
	}
}
