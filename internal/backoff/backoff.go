// Package backoff implements the repository's one retry-delay policy:
// capped decorrelated jitter (the "decorrelated jitter" variant from
// the AWS architecture blog's backoff study), seeded and fully
// deterministic.
//
// bounded.PollFor, the TryLock-polling fallback of the bounded
// acquisition contract, uses it for its sleep schedule once an episode
// escalates past hot spinning; the OCC read path and the virtual-time
// conformance schedules (conformance.VTimeTrace) retry under it, and
// waiter.PolicyBackoff follows its jitter-free Exp schedule.
//
// The package computes durations only — it never sleeps — so the same
// policy drives real time.Sleep retries and retries on a virtual
// clock. Determinism is the point: given a seed, the k-th Next() is
// the same duration in every run, so a failing seed reproduces the
// same retry pressure.
//
// Decorrelated jitter grows the expected delay geometrically while
// keeping every delay uniformly spread over [Base, prev·3], which
// breaks retry synchronization (thundering herds re-colliding on the
// same schedule) without the dead-time cost of full exponential
// backoff; the cap bounds the worst-case reacquisition latency.
package backoff

import (
	"time"

	"repro/internal/xrand"
)

// mult is the decorrelation multiplier: delay k+1 is drawn uniformly
// from [Base, delay_k · mult].
const mult = 3

// Policy bounds a backoff sequence: 0 < Base ≤ Cap.
//
// Boundary behavior, pinned by tests because the virtual-time
// conformance schedules depend on it:
//
//   - The first Next() is exactly Base — no jitter on the first retry,
//     so every retry waits at least Base and the first delay of a
//     seeded schedule is seed-independent.
//   - Cap == Base degenerates sanely: every delay is exactly Base
//     (the draw span collapses to zero; the PRNG is never consulted),
//     so the sequence is a constant schedule independent of seed.
type Policy struct {
	// Base is the minimum (and first) delay.
	Base time.Duration
	// Cap bounds every delay.
	Cap time.Duration
}

// Exp returns the capped exponential (jitter-free) delay for attempt n
// (n ≥ 0): min(Cap, Base·2ⁿ). This is the deterministic schedule
// waiter.PolicyBackoff follows; it is exposed here so the two packages
// share one tested implementation of the capped-doubling math.
func (p Policy) Exp(n int) time.Duration {
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
	p    Policy
	rng  xrand.XorShift64
	prev time.Duration
}

// New returns a sequence governed by p, deterministic for the given
// seed.
func New(p Policy, seed uint64) *Backoff {
	return &Backoff{p: p, rng: *xrand.NewXorShift64(seed)}
}

// Next returns the delay to wait before the next retry and advances
// the sequence: the first call returns Base exactly (a fast first
// retry, and a guaranteed lower bound); call k+1 draws uniformly from
// [Base, min(Cap, delay_k·3)].
func (b *Backoff) Next() time.Duration {
	if b.prev == 0 {
		b.prev = b.p.Base
		return b.prev
	}
	hi := min(b.prev*mult, b.p.Cap)
	d := b.p.Base
	if span := int64(hi - b.p.Base); span > 0 {
		d += time.Duration(b.rng.Uint64() % uint64(span+1))
	}
	b.prev = d
	return d
}

// Reset rewinds the sequence to its initial state (the next delay is
// Base again) without reseeding the generator, so a successful
// acquisition starts the next episode fast while the overall stream
// stays deterministic.
func (b *Backoff) Reset() { b.prev = 0 }
