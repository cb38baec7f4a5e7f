package lockstat

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/rwlock"
)

// lockedProber is implemented by locks exposing a diagnostic holder
// probe (core.Lock.Locked et al.); the decorator uses it to classify
// acquisitions as contended without perturbing admission order.
type lockedProber interface {
	Locked() bool
}

// ContendedThreshold is the acquire latency at or above which an
// acquisition is classified as contended even when no direct evidence
// (queued waiter, held-lock probe) was observed. Uncontended
// acquisitions of every lock in the repository complete in well under
// a microsecond; a waiting episode that reaches the scheduler cannot.
const ContendedThreshold = time.Microsecond

// Decorate is the repository's one lock decorator. It fuses three
// layers over the base lock l, each optional:
//
//   - chaos veto (veto != nil): TryLock, a native LockFor and
//     ReadValidate may fail spuriously through the chaos point — always
//     a legal outcome, so the veto can expose bugs but never cause one.
//     Lock, LockCtx, RLock and OptimisticRead are never vetoed.
//   - bounded acquisition (poll): a lock without native LockFor/LockCtx
//     gains them by polling the vetoed TryLock (see bounded.PollFor).
//   - telemetry into s; a nil s records nothing and reduces every call
//     to one nil check plus the inner call.
//
// Telemetry is outermost in effect: a vetoed TryLock is recorded as a
// try-fail, an abandoned bounded wait as an abandon.
//
// The surfaces of l are resolved once, here, and the returned value's
// dynamic type offers exactly them: TryLock only when l has it;
// LockFor/LockCtx only when l bounds natively or poll was asked of a
// TryLock-capable l; RLock/RUnlock only when l implements
// rwlock.RWLocker; ReadBegin/ReadValidate/OptimisticRead only when l
// implements rwlock.OptimisticLocker. A type assertion on the result
// therefore tells the truth.
//
// c is the time source of the latency timestamps and polling sleeps
// (nil = wall clock); the base lock carries its own, set when it was
// constructed.
func Decorate(l sync.Locker, c clock.Clock, veto *chaos.Point, poll bool, s *Stats) sync.Locker {
	d := newDecorated(l, c, veto, poll, s)
	return d.expose()
}

// Wrap returns l instrumented with s: Decorate with telemetry only. A
// nil s keeps the decorator as a pass-through.
func Wrap(l sync.Locker, s *Stats) sync.Locker { return Decorate(l, nil, nil, false, s) }

// decorated holds the state of one decorated lock. Its methods are
// unexported: the exported surface is assembled by expose from the
// method groups below, so the decorator never answers a type assertion
// for a surface the base lock lacks.
type decorated struct {
	inner  sync.Locker
	try    bounded.TryLocker // nil when the base has no TryLock
	native bounded.Locker    // nil unless the base bounds natively
	poll   bool              // LockFor/LockCtx poll the vetoed TryLock
	rw     rwlock.RWLocker
	opt    rwlock.OptimisticLocker
	probe  lockedProber

	veto  *chaos.Point
	stats *Stats
	clk   clock.Clock

	// waiting counts goroutines currently inside an acquire. It drives
	// two classifications: an arriving goroutine that sees waiting > 0
	// is contended, and an unlock that sees waiting > 0 is a handover.
	waiting atomic.Int64

	// holdStart is the nanotime at which the current holder acquired.
	// Written by the acquiring holder, read by the (same) releasing
	// holder; atomic so cross-episode accesses are race-clean.
	holdStart atomic.Int64
}

func newDecorated(l sync.Locker, c clock.Clock, veto *chaos.Point, poll bool, s *Stats) *decorated {
	d := &decorated{inner: l, veto: veto, stats: s, clk: c}
	d.try, _ = l.(bounded.TryLocker)
	d.native, _ = l.(bounded.Locker)
	d.poll = poll && d.native == nil && d.try != nil
	d.rw, _ = l.(rwlock.RWLocker)
	d.opt, _ = l.(rwlock.OptimisticLocker)
	d.probe, _ = l.(lockedProber)
	return d
}

// The method groups. The write side is one of plain (Lock/Unlock),
// trying (+ TryLock) or bounding (+ LockFor/LockCtx), each embedding
// the one before; sharer and optimist are the read groups. Each
// carries only the decorated state and forwards to it.
type (
	plain    struct{ d *decorated }
	trying   struct{ plain }
	bounding struct{ trying }
	sharer   struct{ d *decorated }
	optimist struct{ d *decorated }
)

func (g plain) Lock()                                { g.d.lock() }
func (g plain) Unlock()                              { g.d.unlock() }
func (g trying) TryLock() bool                       { return g.d.tryLock() }
func (g bounding) LockFor(t time.Duration) bool      { return g.d.lockFor(t) }
func (g bounding) LockCtx(ctx context.Context) error { return g.d.lockCtx(ctx) }
func (g sharer) RLock()                              { g.d.rlock() }
func (g sharer) RUnlock()                            { g.d.rw.RUnlock() }
func (g optimist) ReadBegin() uint64                 { return g.d.opt.ReadBegin() }
func (g optimist) ReadValidate(stamp uint64) bool    { return g.d.readValidate(stamp) }
func (g optimist) OptimisticRead(f func())           { g.d.optimisticRead(f) }

// expose assembles the value whose method set is exactly d's surfaces:
// the write side the base supports, plus its read groups.
func (d *decorated) expose() sync.Locker {
	p := plain{d}
	t := trying{p}
	b := bounding{t}
	r, o := sharer{d}, optimist{d}
	write := 0 // 0: plain, 1: trying, 2: bounding
	if d.try != nil {
		write = 1
		if d.native != nil || d.poll {
			write = 2
		}
	}
	read := 0 // bit 0: shared, bit 1: optimistic
	if d.rw != nil {
		read |= 1
	}
	if d.opt != nil {
		read |= 2
	}
	switch 4*write + read {
	case 0:
		return p
	case 1:
		return struct {
			plain
			sharer
		}{p, r}
	case 2:
		return struct {
			plain
			optimist
		}{p, o}
	case 3:
		return struct {
			plain
			sharer
			optimist
		}{p, r, o}
	case 4:
		return t
	case 5:
		return struct {
			trying
			sharer
		}{t, r}
	case 6:
		return struct {
			trying
			optimist
		}{t, o}
	case 7:
		return struct {
			trying
			sharer
			optimist
		}{t, r, o}
	case 8:
		return b
	case 9:
		return struct {
			bounding
			sharer
		}{b, r}
	case 10:
		return struct {
			bounding
			optimist
		}{b, o}
	default:
		return struct {
			bounding
			sharer
			optimist
		}{b, r, o}
	}
}

// nanotime reads the decorator's timestamp source.
func (d *decorated) nanotime() int64 { return int64(clock.Or(d.clk).Now()) }

// vetoed draws one veto decision (false when no veto is installed).
func (d *decorated) vetoed() bool { return d.veto != nil && d.veto.Fail() }

// tryVetoed is the base's TryLock behind the veto, unrecorded: the
// doorway that TryLock records and that polling retries.
func (d *decorated) tryVetoed() bool { return !d.vetoed() && d.try.TryLock() }

// acquired records a successful blocking or bounded acquisition that
// started at t0; a wait reaching ContendedThreshold counts as
// contended.
func (d *decorated) acquired(s *Stats, contended bool, t0 int64) {
	t1 := d.nanotime()
	el := time.Duration(t1 - t0)
	s.RecordAcquire(contended || el >= ContendedThreshold, el)
	d.holdStart.Store(t1)
}

// lock acquires the base lock, recording the acquisition, its latency,
// and whether it was contended.
func (d *decorated) lock() {
	s := d.stats
	if s == nil {
		d.inner.Lock()
		return
	}
	// Contention evidence gathered before entering the queue: another
	// goroutine already waiting, or the lock observably held. Both
	// probes are racy reads — acceptable for telemetry, and strictly
	// under-counting races are caught by the latency threshold.
	contended := d.waiting.Load() > 0 || (d.probe != nil && d.probe.Locked())
	t0 := d.nanotime()
	d.waiting.Add(1)
	d.inner.Lock()
	d.waiting.Add(-1)
	d.acquired(s, contended, t0)
}

// unlock releases the base lock, recording the hold time and whether
// the release handed ownership to a queued waiter.
func (d *decorated) unlock() {
	s := d.stats
	if s == nil {
		d.inner.Unlock()
		return
	}
	held := time.Duration(d.nanotime() - d.holdStart.Load())
	s.RecordRelease(d.waiting.Load() > 0, held)
	d.inner.Unlock()
}

// tryLock attempts the vetoed doorway. Successful tries count as
// uncontended acquisitions so the acquisitions == unlocks and
// histogram-count invariants hold.
func (d *decorated) tryLock() bool {
	s := d.stats
	if s == nil {
		return d.tryVetoed()
	}
	t0 := d.nanotime()
	if !d.tryVetoed() {
		s.RecordTryFail()
		return false
	}
	t1 := d.nanotime()
	s.RecordAcquire(false, time.Duration(t1-t0))
	d.holdStart.Store(t1)
	return true
}

// lockFor attempts a bounded acquire (see boundedFor).
func (d *decorated) lockFor(t time.Duration) bool {
	return d.recordBounded(func() bool { return d.boundedFor(t) })
}

// lockCtx attempts a context-bounded acquire (see boundedCtx).
func (d *decorated) lockCtx(ctx context.Context) (err error) {
	d.recordBounded(func() bool { err = d.boundedCtx(ctx); return err == nil })
	return err
}

// recordBounded runs a bounded acquire, recording an acquisition on
// success and an abandon on timeout or cancellation.
func (d *decorated) recordBounded(acquire func() bool) bool {
	s := d.stats
	if s == nil {
		return acquire()
	}
	t0 := d.nanotime()
	d.waiting.Add(1)
	ok := acquire()
	d.waiting.Add(-1)
	if !ok {
		s.RecordAbandon()
		return false
	}
	d.acquired(s, false, t0)
	return true
}

// boundedFor is LockFor beneath the telemetry: a vetoed native LockFor
// is an immediate spurious timeout, which callers must tolerate anyway.
func (d *decorated) boundedFor(t time.Duration) bool {
	if d.native != nil {
		return !d.vetoed() && d.native.LockFor(t)
	}
	return bounded.PollFor(d.tryVetoed, d.clk, t)
}

// boundedCtx is LockCtx beneath the telemetry. A native LockCtx is not
// vetoed: its contract ties a failure to the context's own error, and
// fabricating one would turn the veto from failure-only into a liar.
func (d *decorated) boundedCtx(ctx context.Context) error {
	if d.native != nil {
		return d.native.LockCtx(ctx)
	}
	return bounded.PollCtx(d.tryVetoed, d.clk, ctx)
}

// rlock acquires the base's shared read path, recording the read
// acquisition and its latency.
func (d *decorated) rlock() {
	s := d.stats
	if s == nil {
		d.rw.RLock()
		return
	}
	t0 := d.nanotime()
	d.rw.RLock()
	s.RecordRLock(time.Duration(d.nanotime() - t0))
}

// readValidate validates an optimistic section unless vetoed (a failed
// validation is always legal and forces the caller's retry path),
// recording failures as optimistic retries.
func (d *decorated) readValidate(stamp uint64) bool {
	if !d.vetoed() && d.opt.ReadValidate(stamp) {
		return true
	}
	if s := d.stats; s != nil {
		s.RecordOptRetry()
	}
	return false
}

// optimisticRead runs an optimistic read section, recording its
// end-to-end latency and absorbed retries (re-executions of f).
func (d *decorated) optimisticRead(f func()) {
	s := d.stats
	if s == nil {
		d.opt.OptimisticRead(f)
		return
	}
	var calls uint64
	t0 := d.nanotime()
	d.opt.OptimisticRead(func() { calls++; f() })
	el := time.Duration(d.nanotime() - t0)
	var retries uint64
	if calls > 0 {
		retries = calls - 1
	}
	s.RecordOptimisticRead(retries, el)
}
