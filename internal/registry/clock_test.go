package registry

import (
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/clock"
)

// Entries whose base lock accepts no injected clock: the Go runtime
// baselines wait inside the runtime, which we cannot re-clock.
var unclockable = map[string]bool{"GoMutex": true, "GoRWMutex": true}

// Every catalog entry either builds under WithClock (through the full
// veto+bounded+stats pipeline where supported) or is a known runtime
// baseline that must refuse, so a virtual-time harness can never
// silently get a wall-clocked lock.
func TestBuildWithClockCoverage(t *testing.T) {
	v := clock.NewVirtual()
	for _, e := range All() {
		l, err := e.Build(WithClock(v))
		if unclockable[e.Name] {
			if err == nil {
				t.Errorf("%s: expected clock-injection refusal, got a lock", e.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: WithClock build failed: %v", e.Name, err)
			continue
		}
		// The built lock must still work (uncontended paths never touch
		// the clock, so no driving is needed).
		l.Lock()
		l.Unlock()
	}
}

// A bounded acquisition against a held lock expires on virtual time:
// no wall waiting beyond the hot spin phase, and the reported timeout
// arrives only once the virtual clock passes the deadline.
func TestBuildWithClockVirtualLockForExpires(t *testing.T) {
	v := clock.NewVirtual()
	l, err := Build("Recipro", WithClock(v), WithBounded())
	if err != nil {
		t.Fatal(err)
	}
	b := l.(bounded.Locker)
	l.Lock()
	res := make(chan bool, 1)
	go func() { res <- b.LockFor(10 * time.Millisecond) }()
	// Drive the virtual clock until the waiter's escalated (virtual)
	// sleeps carry it past the deadline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case ok := <-res:
			if ok {
				t.Fatal("LockFor acquired a held lock")
			}
			if now := v.Now(); now < 10*time.Millisecond {
				t.Fatalf("timeout reported at virtual %v, before the 10ms deadline", now)
			}
			l.Unlock()
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("LockFor never expired under the virtual clock")
		}
		v.Advance(time.Millisecond)
		time.Sleep(50 * time.Microsecond)
	}
}

// A read-path combinator over a runtime baseline still waits inside the
// runtime, so it refuses the clock exactly as its base does — nested
// combinators included — while building fine without one.
func TestBuildWithClockRefusesRuntimeBase(t *testing.T) {
	for _, prefix := range []string{"rw:", "seq:", "occ:", "rw:seq:"} {
		for base := range unclockable {
			name := prefix + base
			if _, err := Build(name, WithClock(clock.NewVirtual())); err == nil {
				t.Errorf("Build(%s, WithClock) succeeded, but its base ignores the clock", name)
			}
			if _, err := Build(name); err != nil {
				t.Errorf("Build(%s): %v", name, err)
			}
		}
	}
}
