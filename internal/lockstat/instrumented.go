package lockstat

import (
	"fmt"
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

// Veto holds the chaos points a decorated lock's spurious failures
// are drawn from, one stream per vetoed operation, so a report row
// says which operation was vetoed and one operation's draws never
// shift another's.
type Veto struct {
	tryLock  *chaos.Point // TryLock
	lockFor  *chaos.Point // a native LockFor, or each polled attempt
	validate *chaos.Point // ReadValidate
}

// NewVeto returns the veto streams <name>.trylock, <name>.lockfor and
// <name>.validate. Points are never unregistered, so callers building
// many locks intern the result by name.
func NewVeto(name string) *Veto {
	return &Veto{
		tryLock:  chaos.NewPoint(name + ".trylock"),
		lockFor:  chaos.NewPoint(name + ".lockfor"),
		validate: chaos.NewPoint(name + ".validate"),
	}
}

// Decorate is the repository's one lock decorator. It fuses three
// layers over the base lock l, each optional:
//
//   - chaos veto (veto != nil): TryLock, LockFor and ReadValidate may
//     fail spuriously, each through its own point of veto — always a
//     legal outcome, so the veto can expose bugs but never cause one.
//     Lock, RLock and OptimisticRead are never vetoed.
//   - bounded acquisition (poll): a lock without a native LockFor gains
//     one by polling its TryLock, each attempt behind the LockFor veto
//     (see bounded.PollFor).
//   - telemetry into s; a nil s records nothing and reduces every call
//     to one nil check plus the inner call.
//
// Telemetry is outermost in effect: a vetoed TryLock is recorded as a
// try-fail, an abandoned bounded wait as an abandon.
//
// The surfaces of l are resolved once, here, and the returned value's
// dynamic type offers exactly them: TryLock only when l has it;
// LockFor only when l bounds natively or poll was asked of a
// TryLock-capable l; RLock/RUnlock only when l implements
// rwlock.RWLocker; ReadBegin/ReadValidate/OptimisticRead only when l
// implements rwlock.OptimisticLocker. A type assertion on the result
// therefore tells the truth.
//
// c is the time source of the latency timestamps and polling sleeps
// (nil = wall clock); the base lock carries its own, set when it was
// constructed.
func Decorate(l sync.Locker, c clock.Clock, veto *Veto, poll bool, s *Stats) sync.Locker {
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
	poll   bool              // LockFor polls the base's TryLock
	rw     rwlock.RWLocker
	opt    rwlock.OptimisticLocker
	probe  lockedProber

	veto  Veto // nil points: no veto
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

func newDecorated(l sync.Locker, c clock.Clock, veto *Veto, poll bool, s *Stats) *decorated {
	d := &decorated{inner: l, stats: s, clk: c}
	if veto != nil {
		d.veto = *veto
	}
	d.try, _ = l.(bounded.TryLocker)
	d.native, _ = l.(bounded.Locker)
	d.poll = poll && d.native == nil && d.try != nil
	d.rw, _ = l.(rwlock.RWLocker)
	d.opt, _ = l.(rwlock.OptimisticLocker)
	d.probe, _ = l.(lockedProber)
	return d
}

// The method groups. The write side is one of plain (Lock/Unlock),
// trying (+ TryLock) or bounding (+ LockFor), each embedding
// the one before; sharer and optimist are the read groups. Each
// carries only the decorated state and forwards to it.
type (
	plain    struct{ d *decorated }
	trying   struct{ plain }
	bounding struct{ trying }
	sharer   struct{ d *decorated }
	optimist struct{ d *decorated }
)

func (g plain) Lock()                             { g.d.lock() }
func (g plain) Unlock()                           { g.d.unlock() }
func (g trying) TryLock() bool                    { return g.d.tryLock() }
func (g bounding) LockFor(t time.Duration) bool   { return g.d.lockFor(t) }
func (g sharer) RLock()                           { g.d.rlock() }
func (g sharer) RUnlock()                         { g.d.rw.RUnlock() }
func (g optimist) ReadBegin() uint64              { return g.d.opt.ReadBegin() }
func (g optimist) ReadValidate(stamp uint64) bool { return g.d.readValidate(stamp) }
func (g optimist) OptimisticRead(f func())        { g.d.optimisticRead(f) }

// expose assembles the value whose method set is exactly d's surfaces:
// the write side the base supports, plus its read group. Seven sets
// occur: every lock with a read path has TryLock, and none has both
// RLock and the optimistic read.
func (d *decorated) expose() sync.Locker {
	if (d.rw != nil || d.opt != nil) && d.try == nil || d.rw != nil && d.opt != nil {
		panic(fmt.Sprintf("lockstat: no decorated surface set for %T (TryLock %v, RLock %v, optimistic read %v)",
			d.inner, d.try != nil, d.rw != nil, d.opt != nil))
	}
	p := plain{d}
	t := trying{p}
	b := bounding{t}
	r, o := sharer{d}, optimist{d}
	bounds := d.native != nil || d.poll
	switch {
	case d.try == nil:
		return p
	case !bounds && d.rw != nil:
		return struct {
			trying
			sharer
		}{t, r}
	case !bounds && d.opt != nil:
		return struct {
			trying
			optimist
		}{t, o}
	case !bounds:
		return t
	case d.rw != nil:
		return struct {
			bounding
			sharer
		}{b, r}
	case d.opt != nil:
		return struct {
			bounding
			optimist
		}{b, o}
	}
	return b
}

// nanotime reads the decorator's timestamp source.
func (d *decorated) nanotime() int64 { return int64(clock.Or(d.clk).Now()) }

// vetoed draws one veto decision from p (false when no veto is
// installed).
func vetoed(p *chaos.Point) bool { return p != nil && p.Fail() }

// tryVetoed is the base's TryLock behind the TryLock veto, unrecorded.
func (d *decorated) tryVetoed() bool { return !vetoed(d.veto.tryLock) && d.try.TryLock() }

// pollVetoed is one polled LockFor attempt: the base's TryLock behind
// the LockFor veto.
func (d *decorated) pollVetoed() bool { return !vetoed(d.veto.lockFor) && d.try.TryLock() }

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

// lockFor attempts a bounded acquire (see boundedFor), recording an
// acquisition on success and an abandon on timeout.
func (d *decorated) lockFor(t time.Duration) bool {
	s := d.stats
	if s == nil {
		return d.boundedFor(t)
	}
	t0 := d.nanotime()
	d.waiting.Add(1)
	ok := d.boundedFor(t)
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
		return !vetoed(d.veto.lockFor) && d.native.LockFor(t)
	}
	return bounded.PollFor(d.pollVetoed, d.clk, t)
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
	if !vetoed(d.veto.validate) && d.opt.ReadValidate(stamp) {
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
