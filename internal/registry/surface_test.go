package registry

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/bounded"
	"repro/internal/lockstat"
	"repro/internal/rwlock"
)

// A built lock answers type assertions truthfully: whatever options
// decorate it, it is a TryLocker exactly when the entry declares
// CapTryLock, a bounded.Locker exactly when it bounds natively or
// WithBounded succeeded, an RWLocker exactly when it declares
// CapReadShared, and an OptimisticLocker exactly when it declares
// CapOptimisticRead.
func TestBuiltSurfacesAreTruthful(t *testing.T) {
	entries := All()
	for _, name := range []string{"rw:MCS", "seq:TKT", "occ:CLH"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		entries = append(entries, e)
	}
	configs := []struct {
		name    string
		opts    []Option
		bounded bool
	}{
		{"bare", nil, false},
		{"veto", []Option{WithChaosVeto("")}, false},
		{"veto+bounded", []Option{WithChaosVeto(""), WithBounded()}, true},
		{"veto+bounded+stats(nil)", []Option{WithChaosVeto(""), WithBounded(), WithStats(nil)}, true},
		{"stats(live)", []Option{WithStats(lockstat.New())}, false},
	}
	for _, e := range entries {
		for _, c := range configs {
			l, err := e.Build(c.opts...)
			if c.bounded && !e.Boundable() {
				if err == nil {
					t.Errorf("%s/%s: Build succeeded for an unboundable lock", e.Name, c.name)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: %v", e.Name, c.name, err)
				continue
			}
			checkSurfaces(t, e.Name+"/"+c.name, e.Caps, c.bounded, l)
		}
		checkSurfaces(t, e.Name+"/lockstat.Wrap", e.Caps, false, lockstat.Wrap(e.New(nil), nil))

		// With no layer to apply, Build hands back the base lock.
		if l, _ := e.Build(); reflect.TypeOf(l) != reflect.TypeOf(e.New(nil)) {
			t.Errorf("%s: bare Build returned %T, want the base lock", e.Name, l)
		}
	}
}

func checkSurfaces(t *testing.T, what string, caps Capability, withBounded bool, l sync.Locker) {
	t.Helper()
	_, isTry := l.(bounded.TryLocker)
	_, isBounded := l.(bounded.Locker)
	_, isRW := l.(rwlock.RWLocker)
	_, isOpt := l.(rwlock.OptimisticLocker)
	for _, s := range []struct {
		surface   string
		got, want bool
	}{
		{"TryLocker", isTry, caps.Has(CapTryLock)},
		{"bounded.Locker", isBounded, caps.Has(CapNativeBounded) || withBounded},
		{"RWLocker", isRW, caps.Has(CapReadShared)},
		{"OptimisticLocker", isOpt, caps.Has(CapOptimisticRead)},
	} {
		if s.got != s.want {
			t.Errorf("%s (%T): %s = %v, want %v", what, l, s.surface, s.got, s.want)
		}
	}
}
