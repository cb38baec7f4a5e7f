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
type Seqlock struct {
	w   bounded.TryLocker
	seq atomic.Uint64
	// retries counts optimistic attempts that failed validation —
	// conflict-path only, so the fast path stays write-free.
	retries atomic.Uint64
	// clk paces conflict-path retry sleeps (nil = wall clock).
	clk clock.Clock
}

// NewSeqlock wraps base (which must expose TryLock) in the
// version-stamped combinator; c paces its retry sleeps (nil = wall
// clock).
func NewSeqlock(base sync.Locker, c clock.Clock) *Seqlock {
	return &Seqlock{w: requireTry(base, "Seqlock"), clk: c}
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
// not validate) and counts as a conflict.
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
// sleeps drawn from readRetryPolicy.
func (l *Seqlock) optimisticSlow(f func()) {
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.clk)
	var bo *backoff.Backoff
	for attempt := 1; ; attempt++ {
		l.retries.Add(1)
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
}

// Retries reports the cumulative count of optimistic attempts that
// failed validation (diagnostics and conformance).
func (l *Seqlock) Retries() uint64 { return l.retries.Load() }
