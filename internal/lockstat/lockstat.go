// Package lockstat is the repository's lock telemetry layer: a
// low-overhead set of atomic counters and log-scale latency histograms
// that any lock can opt into, turning every benchmark and example into
// a measurement instrument.
//
// The quantities collected are exactly the ones the paper's evaluation
// reasons about offline in the coherence simulator — contended vs.
// uncontended acquisitions, handover counts, waiting-policy behavior
// (spin/yield/park transitions), and acquire/hold latency shapes — but
// measured on the live Track-A locks.
//
// Three pieces cooperate:
//
//   - Stats: padded atomic counters plus two fixed-bucket log₂ latency
//     histograms (acquire latency and hold time). Stats implements
//     waiter.Sink, so spin/yield/park transitions are counted at the
//     policy layer with no per-lock instrumentation.
//   - Decorate / Wrap: the one lock decorator, recording into a Stats
//     and exposing exactly the wrapped lock's surfaces (TryLock,
//     bounded, shared and optimistic reads); registry.Build fuses the
//     chaos veto and bounded polling into it. A nil-Stats decorator
//     degenerates to one nil check plus the inner call.
//   - Export: expvar publication and text/CSV table dumps built on
//     internal/table, wired into cmd/mutexbench, cmd/kvbench and
//     cmd/torture behind their -lockstat flags.
//
// Attribution model: per-lock counters (acquisitions, contention,
// handovers, latencies) are exact, recorded by the wrapper. Waiting-
// policy transitions are recorded through the process-wide waiter sink
// (see waiter.SetSink), so they are attributed to whichever Stats is
// installed while the waiting happens — exact when one lock is hot per
// installation window, which is how the benchmark harnesses use it.
package lockstat

import (
	"sync/atomic"
	"time"

	"repro/internal/pad"
)

// counter is a cache-line-padded atomic counter: each counter owns a
// full line so concurrent writers of different counters never
// false-share (the same sequestration discipline the locks themselves
// follow).
type counter struct {
	v atomic.Uint64
	_ [pad.CacheLineSize - 8]byte
}

func (c *counter) add(n uint64) { c.v.Add(n) }
func (c *counter) load() uint64 { return c.v.Load() }
func (c *counter) inc()         { c.v.Add(1) }

// Stats accumulates telemetry for one lock (or one group of locks
// sharing a sink). The zero value is ready to use. All methods are
// safe for concurrent use.
type Stats struct {
	acquisitions counter // total successful acquisitions (Lock + successful TryLock)
	contended    counter // acquisitions that observed a holder or measurable wait
	handovers    counter // unlocks performed while at least one waiter was queued
	unlocks      counter // total unlocks
	tryFails     counter // failed TryLock attempts
	abandons     counter // bounded acquisitions abandoned (timeout/cancel)
	spins        counter // hot spin iterations (waiter policy layer)
	yields       counter // scheduler yields (waiter policy layer)
	parks        counter // blocking waits: policy sleeps + futex parks
	rlocks       counter // shared-read acquisitions (RLock)
	optReads     counter // completed optimistic read sections (OptimisticRead)
	optRetries   counter // optimistic validations that failed (manual or in-section)

	acquire Hist // acquire latency, ns
	hold    Hist // hold time (Lock return to Unlock entry), ns
	readAcq Hist // read-path latency (RLock acquire / OptimisticRead total), ns
}

// New returns a fresh Stats.
func New() *Stats { return new(Stats) }

// CountSpin implements waiter.Sink.
func (s *Stats) CountSpin() { s.spins.inc() }

// CountYield implements waiter.Sink.
func (s *Stats) CountYield() { s.yields.inc() }

// CountPark implements waiter.Sink.
func (s *Stats) CountPark() { s.parks.inc() }

// RecordAcquire records one successful acquisition with its latency.
func (s *Stats) RecordAcquire(contended bool, d time.Duration) {
	s.acquisitions.inc()
	if contended {
		s.contended.inc()
	}
	s.acquire.Observe(d.Nanoseconds())
}

// RecordRelease records one unlock with the episode's hold time;
// handover reports whether a waiter was queued at release time.
func (s *Stats) RecordRelease(handover bool, held time.Duration) {
	s.unlocks.inc()
	if handover {
		s.handovers.inc()
	}
	s.hold.Observe(held.Nanoseconds())
}

// RecordTryFail records one failed TryLock attempt.
func (s *Stats) RecordTryFail() { s.tryFails.inc() }

// RecordAbandon records one bounded acquisition (LockFor/LockCtx) that
// gave up — by deadline or cancellation — without acquiring. Chaos
// runs read this column as the degradation rate.
func (s *Stats) RecordAbandon() { s.abandons.inc() }

// RecordRLock records one shared-read acquisition with its latency.
func (s *Stats) RecordRLock(d time.Duration) {
	s.rlocks.inc()
	s.readAcq.Observe(d.Nanoseconds())
}

// RecordOptimisticRead records one completed optimistic read section:
// its end-to-end latency and how many validation failures (retries) it
// absorbed before succeeding.
func (s *Stats) RecordOptimisticRead(retries uint64, d time.Duration) {
	s.optReads.inc()
	if retries > 0 {
		s.optRetries.add(retries)
	}
	s.readAcq.Observe(d.Nanoseconds())
}

// RecordOptRetry records one failed optimistic validation observed on
// the manual ReadBegin/ReadValidate surface.
func (s *Stats) RecordOptRetry() { s.optRetries.inc() }

// Snapshot returns a consistent-enough point-in-time copy for
// reporting. Individual counters are loaded independently; between
// loads other goroutines may progress, so cross-counter invariants
// (acquisitions == unlocks) hold exactly only at quiescence.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Acquisitions: s.acquisitions.load(),
		Contended:    s.contended.load(),
		Handovers:    s.handovers.load(),
		Unlocks:      s.unlocks.load(),
		TryFails:     s.tryFails.load(),
		Abandons:     s.abandons.load(),
		Spins:        s.spins.load(),
		Yields:       s.yields.load(),
		Parks:        s.parks.load(),
		RLocks:       s.rlocks.load(),
		OptReads:     s.optReads.load(),
		OptRetries:   s.optRetries.load(),
		Acquire:      s.acquire.Snapshot(),
		Hold:         s.hold.Snapshot(),
		ReadAcq:      s.readAcq.Snapshot(),
	}
}

// Snapshot is a plain-value copy of a Stats, JSON-serializable for the
// expvar export.
type Snapshot struct {
	Acquisitions uint64       `json:"acquisitions"`
	Contended    uint64       `json:"contended"`
	Handovers    uint64       `json:"handovers"`
	Unlocks      uint64       `json:"unlocks"`
	TryFails     uint64       `json:"try_fails"`
	Abandons     uint64       `json:"abandons"`
	Spins        uint64       `json:"spins"`
	Yields       uint64       `json:"yields"`
	Parks        uint64       `json:"parks"`
	RLocks       uint64       `json:"rlocks"`
	OptReads     uint64       `json:"opt_reads"`
	OptRetries   uint64       `json:"opt_retries"`
	Acquire      HistSnapshot `json:"acquire_ns"`
	Hold         HistSnapshot `json:"hold_ns"`
	ReadAcq      HistSnapshot `json:"read_acquire_ns"`
}

// ContendedFraction returns contended/acquisitions in [0,1], or 0 for
// no acquisitions.
func (s Snapshot) ContendedFraction() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquisitions)
}
