// Package chaos is the repository's deterministic fault-injection
// substrate: named injection points threaded through the lock
// algorithms (internal/core, internal/locks), the futex waiting layer
// (internal/futex), the kvstore application and registry.WithChaosVeto,
// all governed by one seeded configuration. Each point is one call
// site, so a point's name says where an injection fired.
//
// Design constraints, in order:
//
//  1. Disabled cost ~zero. Every hook reduces to a single atomic
//     pointer load and a predicted branch when no configuration is
//     installed, so the points can live permanently inside lock hot
//     paths (the same discipline as lockstat's nil-Stats fast path).
//  2. Deterministic per (seed, point, call index). Each point owns a
//     splitmix64 stream derived from the global seed and the point
//     name; the k-th hit of a point makes the same delay/preempt/fail
//     decisions in every run with that seed. The *interleaving* of
//     goroutines still varies run to run — determinism here means a
//     failing seed reproduces the same injection pressure, not the
//     same schedule.
//  3. Failure-only bias. Injections may add delays, force scheduler
//     preemptions at linearization points, report spurious wakeups, or
//     veto a TryLock/LockFor (registry.WithChaosVeto, the only TryLock
//     veto) — all of which are legal behaviors of the
//     underlying primitives. An injection can therefore never *cause*
//     a correctness violation, only expose one.
//
// Typical use (cmd/torture -chaos):
//
//	chaos.Enable(chaos.DefaultConfig(seed))
//	defer chaos.Disable()
//	... run workload ...
//	for _, ps := range chaos.Report() { ... }
package chaos

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// maxDelay caps an injected delay.
const maxDelay = 100 * time.Microsecond

// Config selects injection probabilities. Probabilities are in [0, 1]
// and are evaluated independently per hit.
type Config struct {
	// Seed drives every per-point decision stream.
	Seed uint64
	// Delay is the probability that a Hit injects a sleep of up to
	// 100µs (uniform, deterministic per stream).
	Delay float64
	// Preempt is the probability that a Hit forces a runtime.Gosched,
	// simulating preemption at the instrumented linearization point.
	Preempt float64
	// TryFail is the probability that Fail() reports a spurious
	// failure (registry.WithChaosVeto's TryLock/LockFor/ReadValidate
	// veto; always legal for those operations).
	TryFail float64
	// SpuriousWake is the probability that Wake() reports true,
	// causing an instrumented blocking wait to return spuriously.
	SpuriousWake float64
}

// DefaultConfig returns the torture-harness defaults: aggressive
// preemption at linearization points, moderate delays, and occasional
// spurious failures/wakeups.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:         seed,
		Delay:        0.02,
		Preempt:      0.05,
		TryFail:      0.02,
		SpuriousWake: 0.05,
	}
}

// active holds the installed configuration; nil means disabled. The
// single pointer load is the entire disabled-path cost of every hook.
var active atomic.Pointer[Config]

// registry tracks every point ever constructed so Enable can reset
// counters and Report can enumerate them.
var (
	regMu  sync.Mutex
	points []*Point
)

// Enable installs cfg and zeroes all point counters and the recent-
// injection ring. It replaces any previous configuration.
func Enable(cfg Config) {
	regMu.Lock()
	for _, p := range points {
		p.reset()
	}
	regMu.Unlock()
	recentMu.Lock()
	recentSeq = 0
	recentMu.Unlock()
	active.Store(&cfg)
}

// Disable uninstalls the configuration; all hooks revert to no-ops.
// Accumulated counters are retained until the next Enable so a report
// can be taken after the run.
func Disable() { active.Store(nil) }

// Enabled reports whether fault injection is currently armed.
func Enabled() bool { return active.Load() != nil }

// Point is a named injection point at exactly one call site.
// Construct once at package scope (NewPoint) and call Hit, Fail or
// Wake from the instrumented code; the handle form keeps the armed
// path free of map lookups, and the point's name says where an
// injection fired.
type Point struct {
	name string
	hash uint64

	calls    atomic.Uint64
	delays   atomic.Uint64
	preempts atomic.Uint64
	fails    atomic.Uint64
	wakes    atomic.Uint64
}

// NewPoint registers and returns a new injection point. Names are
// dotted paths ("reciprocating.arrive"), one per call site.
func NewPoint(name string) *Point {
	p := &Point{name: name, hash: fnv64(name)}
	regMu.Lock()
	points = append(points, p)
	regMu.Unlock()
	return p
}

func (p *Point) reset() {
	p.calls.Store(0)
	p.delays.Store(0)
	p.preempts.Store(0)
	p.fails.Store(0)
	p.wakes.Store(0)
}

// draw advances the point's decision stream by one call and returns
// the call's 64-bit noise word. splitmix64 over (seed ^ name-hash) +
// k·φ is the canonical counter-based stream: call k always draws the
// same word for a given seed and name.
func (p *Point) draw(c *Config) uint64 {
	k := p.calls.Add(1)
	return splitmix64((c.Seed ^ p.hash) + k*0x9e3779b97f4a7c15)
}

// Hit possibly injects a scheduler preemption and/or a bounded delay
// at this point. Disarmed, it is one atomic load (and inlines).
func (p *Point) Hit() {
	if c := active.Load(); c != nil {
		p.hit(c)
	}
}

func (p *Point) hit(c *Config) {
	x := p.draw(c)
	if c.Preempt > 0 && unit(x) < c.Preempt {
		p.preempts.Add(1)
		record(p, "preempt")
		runtime.Gosched()
	}
	y := splitmix64(x)
	if c.Delay > 0 && unit(y) < c.Delay {
		p.delays.Add(1)
		record(p, "delay")
		clock.Wall.Sleep(time.Duration(splitmix64(y) % uint64(maxDelay)))
	}
}

// Fail reports whether the operation at this point should fail
// spuriously. Always false, after one atomic load, when disarmed.
func (p *Point) Fail() bool {
	c := active.Load()
	return c != nil && p.fail(c)
}

func (p *Point) fail(c *Config) bool {
	if c.TryFail > 0 && unit(p.draw(c)) < c.TryFail {
		p.fails.Add(1)
		record(p, "fail")
		return true
	}
	return false
}

// Wake reports whether a blocking wait at this point should return
// spuriously. Always false, after one atomic load, when disarmed.
func (p *Point) Wake() bool {
	c := active.Load()
	return c != nil && p.wake(c)
}

func (p *Point) wake(c *Config) bool {
	if c.SpuriousWake > 0 && unit(p.draw(c)) < c.SpuriousWake {
		p.wakes.Add(1)
		record(p, "wake")
		return true
	}
	return false
}

// recent is a small ring of the latest injections, so a stall or
// violation dump can say which code paths chaos was perturbing when
// the run wedged. The ring is only touched when an injection actually
// fires, so the mutex is off the no-injection path.
const recentCap = 64

var (
	recentMu  sync.Mutex
	recentBuf [recentCap]Injection
	recentSeq uint64
)

// Injection is one recorded injection: which point fired and what it
// did.
type Injection struct {
	// Seq numbers injections from the last Enable, starting at 1.
	Seq uint64
	// Point is the injection point's registered name.
	Point string
	// Kind is one of "delay", "preempt", "fail", "wake".
	Kind string
}

// String renders the injection as "point:kind" for dumps.
func (i Injection) String() string { return i.Point + ":" + i.Kind }

// record notes an injection in the recent ring. Called only when an
// injection fires.
func record(p *Point, kind string) {
	recentMu.Lock()
	recentSeq++
	recentBuf[recentSeq%recentCap] = Injection{Seq: recentSeq, Point: p.name, Kind: kind}
	recentMu.Unlock()
}

// Recent returns the most recent injections (up to the ring capacity),
// oldest first. Counters accumulate from the last Enable.
func Recent() []Injection {
	recentMu.Lock()
	defer recentMu.Unlock()
	n := recentSeq
	if n > recentCap {
		n = recentCap
	}
	out := make([]Injection, 0, n)
	for seq := recentSeq - n + 1; seq <= recentSeq; seq++ {
		out = append(out, recentBuf[seq%recentCap])
	}
	return out
}

// PointStat is one row of a chaos report.
type PointStat struct {
	Name     string
	Calls    uint64
	Delays   uint64
	Preempts uint64
	Fails    uint64
	Wakes    uint64
}

// Injected sums the injections (everything but plain calls).
func (s PointStat) Injected() uint64 {
	return s.Delays + s.Preempts + s.Fails + s.Wakes
}

// Report returns per-point statistics for every point that was hit at
// least once, sorted by name. Counters accumulate from the last
// Enable.
func Report() []PointStat {
	regMu.Lock()
	defer regMu.Unlock()
	var out []PointStat
	for _, p := range points {
		calls := p.calls.Load()
		if calls == 0 {
			continue
		}
		out = append(out, PointStat{
			Name:     p.name,
			Calls:    calls,
			Delays:   p.delays.Load(),
			Preempts: p.preempts.Load(),
			Fails:    p.fails.Load(),
			Wakes:    p.wakes.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// splitmix64 is the standard 64-bit finalizer (Vigna); full-period,
// passes BigCrush when used as a counter-based generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a noise word to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// fnv64 is FNV-1a, used only to fold point names into stream seeds.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
