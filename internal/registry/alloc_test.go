package registry

import (
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/rwlock"
)

// The zero-overhead guard for the clock refactor: threading an
// injected clock.Clock through every lock added a pointer field and an
// interface read on the slow paths only — the uncontended Lock/Unlock
// and LockFor fast paths must still run allocation-free, under the
// default wall clock and under an injected virtual clock alike. A
// regression here means the substrate stopped being free when unused.

// allocLocks are the pinned fast paths: the paper's lock, the two
// queue baselines the vtime schedules run, and the spin baselines
// whose LockFor polls their TryLock method value.
var allocLocks = []string{"Recipro", "MCS", "CLH", "TAS", "TTAS", "TKT"}

func buildForAlloc(t *testing.T, name string, virtual bool) (bounded.Locker, *clock.Virtual) {
	t.Helper()
	opts := []Option{WithBounded()}
	var v *clock.Virtual
	if virtual {
		v = clock.NewVirtual()
		opts = append(opts, WithClock(v))
	}
	l, err := Build(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l.(bounded.Locker), v
}

func TestLockUnlockFastPathAllocFree(t *testing.T) {
	for _, name := range allocLocks {
		for _, virtual := range []bool{false, true} {
			b, _ := buildForAlloc(t, name, virtual)
			// Warm element/node pools so the measurement sees the steady
			// state, not first-use pool fills.
			for i := 0; i < 64; i++ {
				b.Lock()
				b.Unlock()
			}
			if n := testing.AllocsPerRun(2000, func() {
				b.Lock()
				b.Unlock()
			}); n != 0 {
				t.Errorf("%s (virtual=%v): Lock/Unlock fast path allocates %.1f/op, want 0", name, virtual, n)
			}
		}
	}
}

func TestLockForFastPathAllocFree(t *testing.T) {
	for _, name := range allocLocks {
		for _, virtual := range []bool{false, true} {
			b, _ := buildForAlloc(t, name, virtual)
			for i := 0; i < 64; i++ {
				if !b.LockFor(time.Millisecond) {
					t.Fatalf("%s: uncontended LockFor failed", name)
				}
				b.Unlock()
			}
			if n := testing.AllocsPerRun(2000, func() {
				if !b.LockFor(time.Millisecond) {
					panic("uncontended LockFor failed")
				}
				b.Unlock()
			}); n != 0 {
				t.Errorf("%s (virtual=%v): LockFor fast path allocates %.1f/op, want 0", name, virtual, n)
			}
		}
	}
}

// The decorated read path cold-mixed runs: rw:Recipro behind the veto,
// bounded polling and nil-Stats telemetry must keep Lock/Unlock and
// RLock/RUnlock allocation-free, under the wall and a virtual clock.
func TestDecoratedRWFastPathAllocFree(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		opts := []Option{WithChaosVeto(""), WithBounded(), WithStats(nil)}
		if virtual {
			opts = append(opts, WithClock(clock.NewVirtual()))
		}
		l, err := Build("rw:Recipro", opts...)
		if err != nil {
			t.Fatal(err)
		}
		rw := l.(rwlock.RWLocker)
		for i := 0; i < 64; i++ {
			rw.Lock()
			rw.Unlock()
			rw.RLock()
			rw.RUnlock()
		}
		if n := testing.AllocsPerRun(2000, func() {
			rw.Lock()
			rw.Unlock()
		}); n != 0 {
			t.Errorf("virtual=%v: decorated Lock/Unlock allocates %.1f/op, want 0", virtual, n)
		}
		if n := testing.AllocsPerRun(2000, func() {
			rw.RLock()
			rw.RUnlock()
		}); n != 0 {
			t.Errorf("virtual=%v: decorated RLock/RUnlock allocates %.1f/op, want 0", virtual, n)
		}
	}
}
