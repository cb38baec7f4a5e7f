package registry

import (
	"fmt"
	"sync"

	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/lockstat"
)

// Build turns the four options into at most one decorator
// (lockstat.Decorate) over the base lock, which fuses the layers that
// apply:
//
//	chaos veto → bounded guarantee → lockstat telemetry
//
// The order is that of their effects: the veto sits against the raw
// lock so injected TryLock failures exercise the algorithm's own retry
// paths; bounded polling retries the TryLock behind the LockFor veto
// so it feels the injected pressure; and telemetry is outermost so
// vetoed attempts are recorded as try-failures and abandoned bounded
// waits as abandons, exactly as real ones are. The decorator offers
// exactly the surfaces the base lock has (plus LockFor under
// WithBounded), so a type assertion on a built lock tells the truth. When no layer
// applies — no options, only WithClock, or WithBounded on a natively
// bounded lock — Build returns the base lock itself.

// Option configures one Build.
type Option func(*buildConfig)

type buildConfig struct {
	stats     *lockstat.Stats
	statsSet  bool
	bounded   bool
	veto      bool
	vetoPoint string
	clk       clock.Clock
	clkSet    bool
}

// WithStats records telemetry into st. A nil st still installs the
// decorator (the nil-Stats fast path), which is the cheap-to-leave-on
// configuration.
func WithStats(st *lockstat.Stats) Option {
	return func(c *buildConfig) { c.stats, c.statsSet = st, true }
}

// WithBounded requires the built lock to support bounded acquisition
// (LockFor, whose deadline is the only way an acquisition gives up):
// Build fails for entries that support neither native bounding nor
// TryLock polling, and otherwise guarantees the returned value
// implements bounded.Locker.
func WithBounded() Option {
	return func(c *buildConfig) { c.bounded = true }
}

// WithClock constructs the lock on c: the base algorithm's waiting
// (park pacing, bounded deadlines), the polling fallback's sleeps, and
// the telemetry timestamps all read it. Build fails for the
// FamilyRuntime entries (the sync.Mutex baselines) and for every
// rw:/seq:/occ: combinator over them, which wait inside the Go runtime
// — silently building a wall-clocked lock under a virtual-time harness
// would deadlock it. A nil c selects the wall clock.
func WithClock(c clock.Clock) Option {
	return func(cfg *buildConfig) { cfg.clk, cfg.clkSet = c, true }
}

// WithChaosVeto makes TryLock, LockFor and ReadValidate fail
// spuriously, each through its own chaos point: <point>.trylock,
// <point>.lockfor (a native LockFor, or each attempt of a polled one)
// and <point>.validate, where point defaults to
// "registry.veto.<entry name>" when empty. It is the only
// source of spurious TryLock failures: no lock carries its own veto,
// so a bare build's TryLock never fails on a free lock. The veto is
// inert until chaos.Enable arms the process, and a veto is always a legal
// outcome of the vetoed operation, so it can expose bugs but never
// cause one. Entries with no TryLock doorway have nothing to veto and
// pass through unchanged.
func WithChaosVeto(point string) Option {
	return func(c *buildConfig) { c.veto, c.vetoPoint = true, point }
}

// Build looks name up in the catalog, constructs it and decorates it
// for the given options.
func Build(name string, opts ...Option) (sync.Locker, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, &UnknownLockError{Name: name}
	}
	return e.Build(opts...)
}

// Build constructs a fresh lock and decorates it for the given
// options.
func (e Entry) Build(opts ...Option) (sync.Locker, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clkSet && e.waitsInRuntime() {
		return nil, fmt.Errorf("registry: lock %s accepts no injected clock (it waits inside the Go runtime)", e.Name)
	}
	l := e.New(cfg.clk)
	_, native := l.(bounded.Locker)
	_, try := l.(bounded.TryLocker)
	if cfg.bounded && !native && !try {
		return nil, fmt.Errorf("registry: lock %s supports no bounded acquisition (no TryLock doorway and no native LockFor)", e.Name)
	}
	poll := cfg.bounded && !native
	veto := cfg.veto && try // no doorway, nothing to veto
	if !veto && !poll && !cfg.statsSet {
		return l, nil
	}
	var v *lockstat.Veto
	if veto {
		name := cfg.vetoPoint
		if name == "" {
			name = "registry.veto." + e.Name
		}
		v = vetoFor(name)
	}
	return lockstat.Decorate(l, cfg.clk, v, poll, cfg.stats), nil
}

// Factory validates the pipeline once and returns a constructor that
// builds a fresh decorated lock per call — the shape the benchmark
// harnesses need (e.g. one shared Stats, fresh lock per run).
func (e Entry) Factory(opts ...Option) (func() sync.Locker, error) {
	if _, err := e.Build(opts...); err != nil {
		return nil, err
	}
	return func() sync.Locker {
		l, _ := e.Build(opts...)
		return l
	}, nil
}

// vetoes interns veto streams by name so repeated Builds of the same
// entry share one injection stream per operation instead of growing
// the chaos registry per instance.
var (
	vetoMu sync.Mutex
	vetoes = map[string]*lockstat.Veto{}
)

func vetoFor(name string) *lockstat.Veto {
	vetoMu.Lock()
	defer vetoMu.Unlock()
	v, ok := vetoes[name]
	if !ok {
		v = lockstat.NewVeto(name)
		vetoes[name] = v
	}
	return v
}
