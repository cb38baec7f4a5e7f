// Package rwlock generalizes the repository's lock abstraction to the
// read path: shared (reader/writer) and optimistic (seqlock/OCC)
// read-side protocols as generic combinators over any catalog lock.
//
// The paper's contention analysis — and the OCC-for-Go and
// coarse-grained-locking papers in PAPERS.md — all locate the real
// throughput win of read-mostly workloads in the same place: readers
// that do not serialize through the writer's lock word. This package
// supplies that capability as composition rather than as new lock
// algorithms: each combinator wraps an existing exclusive lock (which
// keeps supplying writer mutual exclusion, fairness, and waiting
// policy) and adds a read-side protocol around it.
//
//   - RW: a writer-preference reader/writer adapter — an atomic reader
//     count plus a writer-intent flag over the wrapped lock. Readers
//     share; a pending writer blocks new readers, drains active ones,
//     then runs exclusively.
//   - Seqlock: a version-stamped optimistic read path — writers bump
//     the stamp to odd on entry and even on exit; readers run without
//     writing any shared state and retry on stamp conflicts, with the
//     internal/backoff decorrelated-jitter floor bounding the retry
//     spin. NewOCC builds the same Seqlock with an attempt budget:
//     optimistic-then-fallback in the HTM style, so after a bounded
//     number of conflicts the read takes the real lock and its latency
//     stays bounded even under a writer storm.
//
// Two interfaces export the read paths, and a lock's type is the only
// statement of which it has: the registry's ReadShared and OptRead
// columns are these assertions on a fresh instance. The one registry
// decorator (lockstat.Decorate) exposes a read method exactly when the
// lock beneath it has one, never a fallback, so harnesses and stores
// discover read capability with one interface assertion on the built
// lock, and ReadLocker turns the answer into one read-side locker.
// Each constructor takes the clock that paces its waiting.
package rwlock

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/pad"
	"repro/internal/waiter"
)

// RWLocker is the shared-read contract: RLock admits any number of
// concurrent readers while excluding writers (Lock) entirely.
// Writers use the plain sync.Locker surface.
type RWLocker interface {
	sync.Locker
	RLock()
	RUnlock()
}

// OptimisticLocker is the optimistic-read contract. A read section
// runs without acquiring anything: ReadBegin samples the version
// stamp, the caller performs its reads, and ReadValidate reports
// whether the section ran unconflicted (stamp even and unchanged).
// On false the caller observed potentially torn state and must retry
// or fall back; OptimisticRead packages the full retry policy.
//
// Read sections must be side-effect-free on shared state and must
// tolerate inconsistent (torn) values until validation succeeds; to
// stay race-detector-clean they should read shared words with atomic
// loads.
type OptimisticLocker interface {
	sync.Locker
	// ReadBegin returns the current version stamp. An odd stamp means
	// a writer is mid-section; validation of that stamp always fails.
	ReadBegin() uint64
	// ReadValidate reports whether a read section that began at stamp
	// s observed no concurrent writer: s is even and still current.
	ReadValidate(s uint64) bool
	// OptimisticRead runs f until one execution validates, applying
	// the combinator's retry policy (bounded hot retries, then
	// decorrelated-jitter sleeps, then — under an OCC budget — the
	// real lock).
	OptimisticRead(f func())
}

// IsReadShared reports whether l admits concurrent readers through
// RLock. Decorators expose RLock only when the lock beneath them has
// it, so the interface assertion is the whole answer.
func IsReadShared(l sync.Locker) bool {
	_, ok := l.(RWLocker)
	return ok
}

// ReadLocker returns l's read side as a plain locker: RLock/RUnlock
// when l shares readers (implements RWLocker), and l itself otherwise —
// the sync.RWMutex.RLocker idiom extended to exclusive locks, so a read
// path has one body whatever the lock. Resolve it once, at
// construction: the shared case allocates its adapter.
func ReadLocker(l sync.Locker) sync.Locker {
	if rw, ok := l.(RWLocker); ok {
		return rlocker{rw}
	}
	return l
}

// rlocker presents an RWLocker's read side as a sync.Locker.
type rlocker struct{ rw RWLocker }

func (r rlocker) Lock()   { r.rw.RLock() }
func (r rlocker) Unlock() { r.rw.RUnlock() }

// requireTry asserts the base lock's TryLock doorway — which the
// combinators need for their own TryLock surface — at construction,
// where a misuse is attributable, instead of failing at first use.
func requireTry(base sync.Locker, combinator string) bounded.TryLocker {
	t, ok := base.(bounded.TryLocker)
	if !ok {
		panic("rwlock: " + combinator + " requires a TryLock-capable base lock")
	}
	return t
}

// readRetryPolicy is the shared jitter floor for optimistic-read
// retries: once a read section has lost its hot retries it sleeps on
// the capped decorrelated-jitter schedule instead of spinning, so a
// writer storm degrades readers to bounded sleeping, never to
// unbounded busy-waiting. The base is deliberately small — a read
// section is tens of nanoseconds, so even the first sleep all but
// guarantees the next attempt lands between writes.
var readRetryPolicy = backoff.Policy{Base: 10 * time.Microsecond, Cap: time.Millisecond}

// optHotRetries is how many failed optimistic attempts a reader makes
// under the waiter pause policy before escalating to the jitter floor.
const optHotRetries = 8

// retrySeq decorrelates concurrent readers' jitter streams,
// deterministically per process.
var retrySeq atomic.Uint64

// RW is the reader/writer adapter: writer mutual exclusion is the
// wrapped catalog lock, read sharing is an atomic reader count, and
// writer preference is an intent flag that stops new readers before
// the writer drains the active ones.
//
// The protocol is the classic flag-and-count scheme. A writer takes
// the inner lock (serializing against other writers and inheriting the
// inner algorithm's queue discipline), raises the intent flag, and
// spins — under the repository's waiter policy — until the reader
// count drains to zero. A reader increments the count and then
// re-checks the flag: if a writer raised intent concurrently the
// reader backs out and waits, which is what gives writers preference
// (a continuous reader stream cannot starve a writer; a continuous
// writer stream can starve readers, the standard trade-off of this
// orientation, chosen because the write path is the scarce resource in
// the read-mostly regime this package targets).
type RW struct {
	w    sync.Locker
	wtry bounded.TryLocker

	// readers counts active (admitted) readers; it is the only word
	// the read fast path writes.
	readers atomic.Int64
	_       [pad.CacheLineSize - 8]byte

	// wflag is writer intent: raised between the writer's inner-lock
	// acquisition and its release. Kept off the readers line so
	// reader admissions do not false-share with writer polling.
	wflag atomic.Bool

	// clk paces the writer's reader-drain spin and the slow read path
	// (nil = wall clock).
	clk clock.Clock
}

// NewRW wraps base (which must expose TryLock) in the reader/writer
// adapter; c paces its waiting (nil = wall clock) and should be the
// clock base was constructed with.
func NewRW(base sync.Locker, c clock.Clock) *RW {
	return &RW{w: base, wtry: requireTry(base, "RW"), clk: c}
}

// Lock acquires write exclusion: the inner lock, then a drain of the
// active readers.
func (l *RW) Lock() {
	l.w.Lock()
	l.wflag.Store(true)
	if l.readers.Load() == 0 {
		return
	}
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.clk)
	for l.readers.Load() != 0 {
		w.Pause()
	}
}

// Unlock releases write exclusion.
func (l *RW) Unlock() {
	l.wflag.Store(false)
	l.w.Unlock()
}

// TryLock attempts write exclusion without blocking: the inner
// doorway, then an instantaneous reader-drain check (any active
// reader fails the attempt — draining would block).
func (l *RW) TryLock() bool {
	if !l.wtry.TryLock() {
		return false
	}
	l.wflag.Store(true)
	if l.readers.Load() != 0 {
		l.wflag.Store(false)
		l.wtry.Unlock()
		return false
	}
	return true
}

// RLock admits a reader: increment, then re-check writer intent and
// back out if a writer arrived in the window. The uncontended path is
// two atomic loads and one atomic add.
func (l *RW) RLock() {
	if !l.wflag.Load() {
		l.readers.Add(1)
		if !l.wflag.Load() {
			return
		}
		l.readers.Add(-1)
	}
	l.rlockSlow()
}

// rlockSlow waits out writer intent under the waiter policy.
func (l *RW) rlockSlow() {
	w := waiter.NewClocked(waiter.PolicyAdaptive, l.clk)
	for {
		for l.wflag.Load() {
			w.Pause()
		}
		l.readers.Add(1)
		if !l.wflag.Load() {
			return
		}
		l.readers.Add(-1)
	}
}

// RUnlock releases one reader admission.
func (l *RW) RUnlock() {
	if l.readers.Add(-1) < 0 {
		panic("rwlock: RUnlock without RLock")
	}
}

// Readers reports the current admitted-reader count (diagnostics and
// conformance).
func (l *RW) Readers() int64 { return l.readers.Load() }
