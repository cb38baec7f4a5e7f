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
// decorate it, it offers exactly the surfaces of its undecorated base —
// TryLocker, RWLocker and OptimisticLocker when the base does, and
// bounded.Locker when the base bounds natively or WithBounded
// succeeded.
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
			checkSurfaces(t, e.Name+"/"+c.name, e.New(nil), c.bounded, l)
		}
		checkSurfaces(t, e.Name+"/lockstat.Wrap", e.New(nil), false, lockstat.Wrap(e.New(nil), nil))

		// With no layer to apply, Build hands back the base lock.
		if l, _ := e.Build(); reflect.TypeOf(l) != reflect.TypeOf(e.New(nil)) {
			t.Errorf("%s: bare Build returned %T, want the base lock", e.Name, l)
		}
	}
}

func checkSurfaces(t *testing.T, what string, base sync.Locker, withBounded bool, l sync.Locker) {
	t.Helper()
	for _, s := range []struct {
		surface   string
		got, want bool
	}{
		{"TryLocker", offers[bounded.TryLocker](l), offers[bounded.TryLocker](base)},
		{"bounded.Locker", offers[bounded.Locker](l), offers[bounded.Locker](base) || withBounded},
		{"RWLocker", offers[rwlock.RWLocker](l), offers[rwlock.RWLocker](base)},
		{"OptimisticLocker", offers[rwlock.OptimisticLocker](l), offers[rwlock.OptimisticLocker](base)},
	} {
		if s.got != s.want {
			t.Errorf("%s (%T over %T): %s = %v, want %v", what, l, base, s.surface, s.got, s.want)
		}
	}
}

func offers[S any](l sync.Locker) bool {
	_, ok := l.(S)
	return ok
}
