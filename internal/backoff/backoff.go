// Package backoff implements the repository's one retry-delay policy:
// capped decorrelated jitter (the "decorrelated jitter" variant from
// the AWS architecture blog's backoff study), seeded and fully
// deterministic.
//
// Two retry paths share it:
//
//   - bounded.PollFor/PollCtx, the TryLock-polling fallback of the
//     bounded acquisition contract, use it for its sleep schedule once an
//     episode escalates past hot spinning.
//   - the cluster simulation's lease client (internal/cluster) uses it
//     for lease re-acquisition after a denial or an expiry.
//
// The package computes durations only — it never sleeps — so the same
// policy drives real time.Sleep retries and simulated-time retries
// under a discrete-event scheduler. Determinism is the point: given a
// seed, the k-th Next() is the same duration in every run, so a
// failing seed reproduces the same retry pressure.
//
// Decorrelated jitter grows the expected delay geometrically while
// keeping every delay uniformly spread over [Base, prev·Mult], which
// breaks retry synchronization (thundering herds re-colliding on the
// same schedule) without the dead-time cost of full exponential
// backoff; the cap bounds the worst-case reacquisition latency.
package backoff

import (
	"time"

	"repro/internal/xrand"
)

// Policy bounds a backoff sequence. The zero value selects defaults.
//
// Boundary behavior, pinned by tests because the virtual-time
// conformance schedules depend on it:
//
//   - The first Next() is exactly Base — no jitter on the first retry,
//     so livelock checkers have a guaranteed lower bound and the first
//     delay of a seeded schedule is seed-independent.
//   - Cap == Base degenerates sanely: every delay is exactly Base
//     (the draw span collapses to zero; the PRNG is never consulted).
//   - Mult < 0 is the zero-jitter sentinel, mirroring the cluster
//     sim's NetJitter < 0 convention: every delay is exactly Base and
//     the PRNG is never consulted, so the sequence is a pure constant
//     schedule independent of seed. Distinct from Mult == 0 (a zero
//     field), which selects the default multiplier.
type Policy struct {
	// Base is the minimum (and first) delay. Default 4ms.
	Base time.Duration
	// Cap bounds every delay. Default 64ms.
	Cap time.Duration
	// Mult is the decorrelation multiplier: delay k+1 is drawn
	// uniformly from [Base, delay_k · Mult]. Default 3. Negative
	// values select the zero-jitter sentinel (every delay == Base).
	Mult int
}

// WithDefaults fills zero fields with the package defaults. Negative
// Mult (the zero-jitter sentinel) is preserved, not defaulted.
func (p Policy) WithDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 4 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 64 * time.Millisecond
	}
	if p.Cap < p.Base {
		p.Cap = p.Base
	}
	if p.Mult >= 0 && p.Mult < 2 {
		p.Mult = 3
	}
	return p
}

// Exp returns the capped exponential (jitter-free) delay for attempt n
// (n ≥ 0): min(Cap, Base·2ⁿ). This is the deterministic schedule
// waiter.PolicyBackoff follows; it is exposed here so the two packages
// share one tested implementation of the capped-doubling math.
func (p Policy) Exp(n int) time.Duration {
	p = p.WithDefaults()
	if n < 0 {
		n = 0
	}
	// Beyond 62 doublings any Base ≥ 1ns has saturated the cap; clamp
	// before shifting to avoid overflow.
	if n > 62 || p.Base<<uint(n) <= 0 || p.Base<<uint(n) > p.Cap {
		return p.Cap
	}
	return p.Base << uint(n)
}

// Backoff is one seeded retry sequence. Not safe for concurrent use;
// construct one per waiter (they are two words plus the policy).
type Backoff struct {
	p        Policy
	rng      xrand.XorShift64
	prev     time.Duration
	attempts int
}

// New returns a sequence governed by p (zero fields defaulted),
// deterministic for the given seed.
func New(p Policy, seed uint64) *Backoff {
	b := &Backoff{p: p.WithDefaults()}
	b.rng = *xrand.NewXorShift64(seed)
	return b
}

// Next returns the delay to wait before the next retry and advances
// the sequence: the first call returns Base exactly (fast first retry,
// and a guaranteed lower bound the livelock checkers can assert
// against); call k+1 draws uniformly from [Base, min(Cap, delay_k·Mult)].
func (b *Backoff) Next() time.Duration {
	b.attempts++
	if b.prev == 0 || b.p.Mult < 0 {
		b.prev = b.p.Base
		return b.prev
	}
	hi := b.prev * time.Duration(b.p.Mult)
	if hi > b.p.Cap {
		hi = b.p.Cap
	}
	d := b.p.Base
	if span := int64(hi - b.p.Base); span > 0 {
		d += time.Duration(b.rng.Uint64() % uint64(span+1))
	}
	b.prev = d
	return d
}

// Attempts reports how many delays have been drawn since the last
// Reset.
func (b *Backoff) Attempts() int { return b.attempts }

// Reset rewinds the sequence to its initial state (the next delay is
// Base again) without reseeding the generator, so a successful
// acquisition starts the next episode fast while the overall stream
// stays deterministic.
func (b *Backoff) Reset() {
	b.prev = 0
	b.attempts = 0
}
