package backoff

import (
	"testing"
	"time"
)

// Boundary-behavior pins (see the Policy doc block): the virtual-time
// conformance schedules depend on these exact semantics, so each is
// pinned by a test rather than left to the implementation's
// discretion.

// The first Next() is exactly Base — before and after Reset — for any
// seed: the first delay of a seeded schedule is seed-independent.
func TestFirstDelayIsExactlyBase(t *testing.T) {
	p := Policy{Base: 3 * time.Millisecond, Cap: 48 * time.Millisecond}
	for seed := uint64(1); seed <= 20; seed++ {
		b := New(p, seed)
		if d := b.Next(); d != p.Base {
			t.Fatalf("seed %d: first delay %v, want exactly Base %v", seed, d, p.Base)
		}
		for i := 0; i < 5; i++ {
			b.Next()
		}
		b.Reset()
		if d := b.Next(); d != p.Base {
			t.Fatalf("seed %d: first delay after Reset %v, want exactly Base %v", seed, d, p.Base)
		}
	}
}

// Cap == Base collapses the draw span to zero: every delay is exactly
// Base, and — because the PRNG is never consulted — the sequence is
// identical across seeds.
func TestCapEqualsBaseDegeneratesSanely(t *testing.T) {
	p := Policy{Base: 2 * time.Millisecond, Cap: 2 * time.Millisecond}
	for _, seed := range []uint64{1, 7, 12345} {
		b := New(p, seed)
		for i := 0; i < 50; i++ {
			if d := b.Next(); d != p.Base {
				t.Fatalf("seed %d draw %d: delay %v, want constant Base %v", seed, i, d, p.Base)
			}
		}
	}
}
