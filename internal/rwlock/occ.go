package rwlock

import (
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/waiter"
)

// OCC is the optimistic-then-fallback combinator, the software analogue
// of hardware-transactional lock elision: a read section first runs a
// bounded number of seqlock-optimistic attempts (no acquisition, stamp
// validation), and if conflicts persist it falls back to acquiring the
// wrapped lock for a guaranteed-consistent read. Read latency is
// therefore bounded by the wrapped lock's acquisition latency even
// under a continuous writer storm — the property the conformance
// suite's chaos conflict-storm check pins down.
//
// Writers behave exactly as under Seqlock: wrapped lock plus an
// even/odd stamp so optimistic readers can detect them.
type OCC struct {
	w   bounded.TryLocker
	seq atomic.Uint64
	// retries / fallbacks count conflict-path events only; the
	// optimistic fast path writes no shared memory.
	retries   atomic.Uint64
	fallbacks atomic.Uint64
	// clk paces conflict-path retry sleeps (nil = wall clock).
	clk clock.Clock
}

// occMaxAttempts is the total optimistic budget (hot pauses, then
// jittered sleeps) an OCC read spends before taking the real lock.
const occMaxAttempts = optHotRetries + 4

// NewOCC wraps base (which must expose TryLock) in the
// optimistic-then-fallback combinator; c paces its retry sleeps (nil =
// wall clock).
func NewOCC(base sync.Locker, c clock.Clock) *OCC {
	return &OCC{w: requireTry(base, "OCC"), clk: c}
}

// Lock enters a write section: the wrapped lock, then stamp → odd.
func (l *OCC) Lock() {
	l.w.Lock()
	l.seq.Add(1)
}

// Unlock exits a write section: stamp → even, then the wrapped lock.
func (l *OCC) Unlock() {
	l.seq.Add(1)
	l.w.Unlock()
}

// TryLock attempts a write section without blocking.
func (l *OCC) TryLock() bool {
	if !l.w.TryLock() {
		return false
	}
	l.seq.Add(1)
	return true
}

// ReadBegin samples the version stamp (odd ⇒ writer in flight).
func (l *OCC) ReadBegin() uint64 { return l.seq.Load() }

// ReadValidate reports whether a read section begun at s ran
// unconflicted.
func (l *OCC) ReadValidate(s uint64) bool {
	return s&1 == 0 && l.seq.Load() == s
}

// OptimisticRead runs f optimistically up to occMaxAttempts times —
// hot waiter pauses first, then decorrelated-jitter sleeps — and on
// sustained conflict acquires the wrapped lock and runs f once under
// real exclusion. The fallback read does not bump the stamp (it
// mutates nothing), so concurrent optimistic readers still validate.
func (l *OCC) OptimisticRead(f func()) {
	s := l.seq.Load()
	if s&1 == 0 {
		f()
		if l.seq.Load() == s {
			return
		}
	}
	l.optimisticSlow(f)
}

func (l *OCC) optimisticSlow(f func()) {
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.clk)
	var bo *backoff.Backoff
	for attempt := 1; attempt < occMaxAttempts; attempt++ {
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
	l.fallbacks.Add(1)
	l.w.Lock()
	f()
	l.w.Unlock()
}

// Retries reports cumulative failed optimistic attempts.
func (l *OCC) Retries() uint64 { return l.retries.Load() }

// Fallbacks reports how many reads gave up on optimism and took the
// wrapped lock.
func (l *OCC) Fallbacks() uint64 { return l.fallbacks.Load() }
