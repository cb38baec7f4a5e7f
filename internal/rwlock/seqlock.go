package rwlock

import (
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/waiter"
)

// Seqlock is the version-stamped optimistic-read combinator: writers
// take the wrapped catalog lock and bump the stamp to odd on entry and
// back to even on exit; readers acquire nothing, sample the stamp,
// read, and revalidate. A validated read is linearizable (it saw no
// concurrent writer); a failed validation means the section may have
// observed torn state and must be retried or discarded.
//
// The read fast path writes no shared memory at all — the property
// that makes seqlocks the canonical answer to reader-side coherence
// traffic — so under a read-mostly load the stamp line stays in
// shared state in every reader's cache and the wrapped lock is
// touched only by writers.
//
// A Seqlock built by NewOCC is the optimistic-then-fallback
// combinator, the software analogue of hardware-transactional lock
// elision: its read gives up optimism after a bounded number of
// attempts and takes the wrapped lock for a guaranteed-consistent
// read, so read latency is bounded by the wrapped lock's acquisition
// latency even under a continuous writer storm — the property the
// conformance suite's chaos conflict-storm check pins down.
type Seqlock struct {
	w   bounded.TryLocker
	seq atomic.Uint64
	// budget is the optimistic attempts a read spends before taking
	// the wrapped lock; zero retries forever.
	budget int
	// clk paces conflict-path retry sleeps (nil = wall clock).
	clk clock.Clock
}

// occMaxAttempts is the total optimistic budget (hot pauses, then
// jittered sleeps) an OCC read spends before taking the real lock.
const occMaxAttempts = optHotRetries + 4

// NewSeqlock wraps base (which must expose TryLock) in the
// version-stamped combinator; c paces its retry sleeps (nil = wall
// clock).
func NewSeqlock(base sync.Locker, c clock.Clock) *Seqlock {
	return &Seqlock{w: requireTry(base, "Seqlock"), clk: c}
}

// NewOCC wraps base (which must expose TryLock) in a Seqlock whose
// reads fall back to the wrapped lock after occMaxAttempts optimistic
// attempts; c paces its retry sleeps (nil = wall clock).
func NewOCC(base sync.Locker, c clock.Clock) *Seqlock {
	return &Seqlock{w: requireTry(base, "OCC"), budget: occMaxAttempts, clk: c}
}

// Lock enters a write section: the wrapped lock, then stamp → odd.
func (l *Seqlock) Lock() {
	l.w.Lock()
	l.seq.Add(1)
}

// Unlock exits a write section: stamp → even, then the wrapped lock.
func (l *Seqlock) Unlock() {
	l.seq.Add(1)
	l.w.Unlock()
}

// TryLock attempts a write section without blocking.
func (l *Seqlock) TryLock() bool {
	if !l.w.TryLock() {
		return false
	}
	l.seq.Add(1)
	return true
}

// ReadBegin samples the version stamp (odd ⇒ writer in flight).
func (l *Seqlock) ReadBegin() uint64 { return l.seq.Load() }

// ReadValidate reports whether a read section begun at s ran
// unconflicted: the begin stamp was even (no writer mid-section) and
// is still current (no writer since).
func (l *Seqlock) ReadValidate(s uint64) bool {
	return s&1 == 0 && l.seq.Load() == s
}

// OptimisticRead runs f until one execution validates. Conflicts are
// retried hot under the waiter pause policy for optHotRetries
// attempts, then on the decorrelated-jitter backoff floor — a writer
// storm degrades readers to bounded sleeping, never unbounded spin.
// When a begin stamp is odd the section is skipped entirely (it could
// not validate) and counts as a conflict. Under an OCC budget, a read
// that exhausts it acquires the wrapped lock and runs f once under
// real exclusion; that fallback does not bump the stamp (it mutates
// nothing), so concurrent optimistic readers still validate.
func (l *Seqlock) OptimisticRead(f func()) {
	s := l.seq.Load()
	if s&1 == 0 {
		f()
		if l.seq.Load() == s {
			return
		}
	}
	l.optimisticSlow(f)
}

// optimisticSlow is the conflict path: waiter pauses, then jittered
// sleeps drawn from readRetryPolicy, then — once a nonzero budget is
// spent — the wrapped lock.
func (l *Seqlock) optimisticSlow(f func()) {
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.clk)
	var bo *backoff.Backoff
	for attempt := 1; l.budget == 0 || attempt < l.budget; attempt++ {
		if attempt <= optHotRetries {
			w.Pause()
		} else {
			if bo == nil {
				bo = backoff.New(readRetryPolicy, retrySeq.Add(1))
			}
			clock.Or(l.clk).Sleep(bo.Next())
		}
		s := l.seq.Load()
		if s&1 != 0 {
			continue
		}
		f()
		if l.seq.Load() == s {
			return
		}
	}
	l.w.Lock()
	f()
	l.w.Unlock()
}
