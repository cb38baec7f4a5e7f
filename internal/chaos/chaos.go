// Package chaos is the repository's deterministic fault-injection
// substrate: named injection points threaded through the lock
// algorithms (internal/core, internal/locks), the waiting layer
// (internal/waiter, internal/futex) and the kvstore application, all
// governed by one seeded configuration.
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
//     veto a TryLock/LockFor — all of which are legal behaviors of the
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

// Config selects injection probabilities. Probabilities are in [0, 1]
// and are evaluated independently per hit.
type Config struct {
	// Seed drives every per-point decision stream.
	Seed uint64
	// Delay is the probability that a Hit injects a sleep of up to
	// MaxDelay (uniform, deterministic per stream).
	Delay float64
	// MaxDelay caps injected delays; zero selects 100µs.
	MaxDelay time.Duration
	// Preempt is the probability that a Hit forces a runtime.Gosched,
	// simulating preemption at the instrumented linearization point.
	Preempt float64
	// TryFail is the probability that Fail() vetoes a TryLock/LockFor
	// attempt (a spurious failure, always legal for those operations).
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
		MaxDelay:     100 * time.Microsecond,
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
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 100 * time.Microsecond
	}
	regMu.Lock()
	for _, p := range points {
		p.reset()
	}
	regMu.Unlock()
	recentMu.Lock()
	recentSeq = 0
	recentMu.Unlock()
	c := cfg
	active.Store(&c)
}

// Disable uninstalls the configuration; all hooks revert to no-ops.
// Accumulated counters are retained until the next Enable so a report
// can be taken after the run.
func Disable() { active.Store(nil) }

// Enabled reports whether fault injection is currently armed.
func Enabled() bool { return active.Load() != nil }

// Seed returns the active seed (0 when disabled).
func Seed() uint64 {
	if c := active.Load(); c != nil {
		return c.Seed
	}
	return 0
}

// Point is a named injection point. Construct once at package scope
// (NewPoint) and call Hit/Fail/Wake from the instrumented code; the
// handle form keeps the armed path free of map lookups. A point that
// serves several call sites can hand each one a labeled Site so
// reports and stall dumps name the faulting site, not just the point.
type Point struct {
	name string
	hash uint64

	calls    atomic.Uint64
	delays   atomic.Uint64
	preempts atomic.Uint64
	fails    atomic.Uint64
	wakes    atomic.Uint64

	sites []*Site
}

// NewPoint registers and returns a new injection point. Names are
// dotted paths ("reciprocating.arrive"); each call site should own a
// distinct name so Report attributes injections usefully.
func NewPoint(name string) *Point {
	p := &Point{name: name, hash: fnv64(name)}
	regMu.Lock()
	points = append(points, p)
	regMu.Unlock()
	return p
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

func (p *Point) reset() {
	p.calls.Store(0)
	p.delays.Store(0)
	p.preempts.Store(0)
	p.fails.Store(0)
	p.wakes.Store(0)
	for _, s := range p.sites {
		s.delays.Store(0)
		s.preempts.Store(0)
		s.fails.Store(0)
		s.wakes.Store(0)
	}
}

// Site is a labeled view of a Point for one call site. All sites of a
// point share the point's decision stream and call counter — labeling
// never changes which injections fire for a given seed — but record
// which site an injection actually hit, so a stall or violation dump
// can name the faulting code path ("locks.trylock@CLH.TryLock") rather
// than just the seed. Construct at package scope with Point.Site.
type Site struct {
	p     *Point
	label string

	delays   atomic.Uint64
	preempts atomic.Uint64
	fails    atomic.Uint64
	wakes    atomic.Uint64
}

// Site registers and returns a labeled view of p for one call site.
func (p *Point) Site(label string) *Site {
	s := &Site{p: p, label: label}
	regMu.Lock()
	p.sites = append(p.sites, s)
	regMu.Unlock()
	return s
}

// Label returns the site's label.
func (s *Site) Label() string { return s.label }

// Hit is Point.Hit attributed to this site.
func (s *Site) Hit() { s.p.hit(s) }

// Fail is Point.Fail attributed to this site.
func (s *Site) Fail() bool { return s.p.fail(s) }

// Wake is Point.Wake attributed to this site.
func (s *Site) Wake() bool { return s.p.wake(s) }

// draw advances the point's decision stream by one call and returns
// the call's 64-bit noise word. splitmix64 over (seed ^ name-hash) +
// k·φ is the canonical counter-based stream: call k always draws the
// same word for a given seed and name.
func (p *Point) draw(c *Config) uint64 {
	k := p.calls.Add(1)
	return splitmix64((c.Seed ^ p.hash) + k*0x9e3779b97f4a7c15)
}

// Hit possibly injects a scheduler preemption and/or a bounded delay
// at this point. It is a no-op unless chaos is enabled.
func (p *Point) Hit() { p.hit(nil) }

func (p *Point) hit(s *Site) {
	c := active.Load()
	if c == nil {
		return
	}
	x := p.draw(c)
	if c.Preempt > 0 && unit(x) < c.Preempt {
		p.preempts.Add(1)
		record(p, s, "preempt")
		runtime.Gosched()
	}
	y := splitmix64(x)
	if c.Delay > 0 && unit(y) < c.Delay {
		p.delays.Add(1)
		record(p, s, "delay")
		d := time.Duration(splitmix64(y) % uint64(c.MaxDelay))
		clock.Wall.Sleep(d)
	}
}

// Fail reports whether a TryLock/LockFor attempt at this point should
// fail spuriously. Always false when chaos is disabled.
func (p *Point) Fail() bool { return p.fail(nil) }

func (p *Point) fail(s *Site) bool {
	c := active.Load()
	if c == nil {
		return false
	}
	if c.TryFail > 0 && unit(p.draw(c)) < c.TryFail {
		p.fails.Add(1)
		record(p, s, "fail")
		return true
	}
	return false
}

// Wake reports whether a blocking wait at this point should return
// spuriously. Always false when chaos is disabled.
func (p *Point) Wake() bool { return p.wake(nil) }

func (p *Point) wake(s *Site) bool {
	c := active.Load()
	if c == nil {
		return false
	}
	if c.SpuriousWake > 0 && unit(p.draw(c)) < c.SpuriousWake {
		p.wakes.Add(1)
		record(p, s, "wake")
		return true
	}
	return false
}

// recent is a small ring of the latest injections, labeled by site,
// so a stall or violation dump can say which code paths chaos was
// perturbing when the run wedged. The ring is only touched when an
// injection actually fires, so the mutex is off the no-injection path.
const recentCap = 64

var (
	recentMu  sync.Mutex
	recentBuf [recentCap]Injection
	recentSeq uint64
)

// Injection is one recorded injection: which point fired, at which
// labeled site (empty for unlabeled Point calls), and what it did.
type Injection struct {
	// Seq numbers injections from the last Enable, starting at 1.
	Seq uint64
	// Point is the injection point's registered name.
	Point string
	// Site is the call-site label, or "" for unlabeled calls.
	Site string
	// Kind is one of "delay", "preempt", "fail", "wake".
	Kind string
}

// String renders the injection as "point@site:kind" for dumps.
func (i Injection) String() string {
	at := i.Point
	if i.Site != "" {
		at += "@" + i.Site
	}
	return at + ":" + i.Kind
}

// record notes an injection in the site's counters and the recent
// ring. Called only when an injection fires.
func record(p *Point, s *Site, kind string) {
	label := ""
	if s != nil {
		label = s.label
		switch kind {
		case "delay":
			s.delays.Add(1)
		case "preempt":
			s.preempts.Add(1)
		case "fail":
			s.fails.Add(1)
		case "wake":
			s.wakes.Add(1)
		}
	}
	recentMu.Lock()
	recentSeq++
	recentBuf[recentSeq%recentCap] = Injection{Seq: recentSeq, Point: p.name, Site: label, Kind: kind}
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

// SiteStat is the per-site injection breakdown inside a PointStat.
type SiteStat struct {
	Label    string
	Delays   uint64
	Preempts uint64
	Fails    uint64
	Wakes    uint64
}

// Injected sums the site's injections.
func (s SiteStat) Injected() uint64 {
	return s.Delays + s.Preempts + s.Fails + s.Wakes
}

// PointStat is one row of a chaos report.
type PointStat struct {
	Name     string
	Calls    uint64
	Delays   uint64
	Preempts uint64
	Fails    uint64
	Wakes    uint64
	// Sites breaks the injections down by call-site label, listing
	// only sites that absorbed at least one injection.
	Sites []SiteStat
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
		ps := PointStat{
			Name:     p.name,
			Calls:    calls,
			Delays:   p.delays.Load(),
			Preempts: p.preempts.Load(),
			Fails:    p.fails.Load(),
			Wakes:    p.wakes.Load(),
		}
		for _, s := range p.sites {
			ss := SiteStat{
				Label:    s.label,
				Delays:   s.delays.Load(),
				Preempts: s.preempts.Load(),
				Fails:    s.fails.Load(),
				Wakes:    s.wakes.Load(),
			}
			if ss.Injected() > 0 {
				ps.Sites = append(ps.Sites, ss)
			}
		}
		sort.Slice(ps.Sites, func(i, j int) bool { return ps.Sites[i].Label < ps.Sites[j].Label })
		out = append(out, ps)
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
