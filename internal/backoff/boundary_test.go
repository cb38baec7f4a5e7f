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

// Mult <= 0 selects the default multiplier: a negative Mult is no
// zero-jitter mode, and the sequence does jitter past the first draw.
// A constant schedule is Cap == Base, pinned above.
func TestMultZeroIsDefaultNotSentinel(t *testing.T) {
	for _, mult := range []int{0, -1} {
		p := Policy{Base: time.Millisecond, Cap: 64 * time.Millisecond, Mult: mult}
		if got := p.WithDefaults().Mult; got != 3 {
			t.Fatalf("WithDefaults(Mult=%d) = %d, want default 3", mult, got)
		}
		b := New(p, 42)
		b.Next() // Base, pinned above
		varied := false
		for i := 0; i < 50; i++ {
			if b.Next() != p.Base {
				varied = true
				break
			}
		}
		if !varied {
			t.Fatalf("Mult=%d sequence never left Base", mult)
		}
	}
}
