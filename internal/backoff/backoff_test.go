package backoff

import (
	"testing"
	"time"
)

// TestDeterministic pins the seed contract: the same seed yields the
// same sequence, different seeds diverge.
func TestDeterministic(t *testing.T) {
	p := Policy{Base: 4 * time.Millisecond, Cap: 64 * time.Millisecond}
	a := New(p, 42)
	b := New(p, 42)
	c := New(p, 43)
	var diverged bool
	for i := 0; i < 64; i++ {
		da, db, dc := a.Next(), b.Next(), c.Next()
		if da != db {
			t.Fatalf("draw %d: seed 42 gave %v and %v", i, da, db)
		}
		if da != dc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatalf("seeds 42 and 43 produced identical 64-draw sequences")
	}
}

// TestBounds verifies every delay stays in [Base, Cap], the first is
// exactly Base, and each delay is at most 3× its predecessor.
func TestBounds(t *testing.T) {
	p := Policy{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond}
	b := New(p, 7)
	prev := time.Duration(0)
	for i := 0; i < 200; i++ {
		d := b.Next()
		if i == 0 && d != p.Base {
			t.Fatalf("first delay = %v, want Base %v", d, p.Base)
		}
		if d < p.Base || d > p.Cap {
			t.Fatalf("draw %d: delay %v outside [%v, %v]", i, d, p.Base, p.Cap)
		}
		if prev > 0 && d > prev*mult {
			t.Fatalf("draw %d: delay %v > %d× previous %v", i, d, mult, prev)
		}
		prev = d
	}
}

// TestGrowth checks the sequence actually escalates: over many draws
// the mean delay must clearly exceed Base (decorrelated jitter grows
// geometrically in expectation until the cap).
func TestGrowth(t *testing.T) {
	p := Policy{Base: time.Millisecond, Cap: 100 * time.Millisecond}
	b := New(p, 11)
	var sum time.Duration
	n := 100
	for i := 0; i < n; i++ {
		sum += b.Next()
	}
	if mean := sum / time.Duration(n); mean < 5*p.Base {
		t.Fatalf("mean delay %v over %d draws; escalation missing (Base %v)", mean, n, p.Base)
	}
}

// TestReset rewinds to a Base first-retry without reseeding.
func TestReset(t *testing.T) {
	b := New(Policy{Base: 4 * time.Millisecond, Cap: 64 * time.Millisecond}, 3)
	for i := 0; i < 10; i++ {
		b.Next()
	}
	b.Reset()
	if d := b.Next(); d != b.p.Base {
		t.Fatalf("first delay after Reset = %v, want Base %v", d, b.p.Base)
	}
}

// TestExp pins the capped-doubling schedule shared with
// waiter.PolicyBackoff.
func TestExp(t *testing.T) {
	p := Policy{Base: time.Microsecond, Cap: 256 * time.Microsecond}
	for n, want := range []time.Duration{
		1 * time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond,
		8 * time.Microsecond, 16 * time.Microsecond, 32 * time.Microsecond,
		64 * time.Microsecond, 128 * time.Microsecond, 256 * time.Microsecond,
		256 * time.Microsecond, // capped
	} {
		if got := p.Exp(n); got != want {
			t.Fatalf("Exp(%d) = %v, want %v", n, got, want)
		}
	}
	if got := p.Exp(-1); got != p.Base {
		t.Fatalf("Exp(-1) = %v, want Base", got)
	}
	if got := p.Exp(200); got != p.Cap {
		t.Fatalf("Exp(200) = %v, want Cap", got)
	}
}
