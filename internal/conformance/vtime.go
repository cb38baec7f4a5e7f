package conformance

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/registry"
	"repro/internal/xrand"
)

// Deterministic virtual-time conformance: real catalog locks driven
// through seeded bounded-acquisition and backoff schedules under
// clock.Virtual. The virtual runner admits exactly one runnable worker
// at a time — a timer fires only when every registered worker is
// blocked in a virtual wait, and after the clock refactor every wait
// in these locks (spin escalation sleeps, bounded deadlines, backoff
// delays) is clock-paced — so the interleaving, and therefore the
// event trace, is a pure function of the seed. Same seed, same trace,
// byte for byte; that is the property CheckVTime pins.
//
// Each seed yields one interleaving, where the schedule searches on
// internal/explore (cmd/modelcheck over the simulated locks, the
// kvstore search over the store) enumerate them all; but this runs
// the *actual* lock code, waiting paths included: the Reciprocating
// admission chain, MCS/CLH queue handoff, the waiter escalation
// ladder, and the decorrelated-jitter backoff all execute their real
// paths, just on a synthetic time axis.

// VTimeLocks are the catalog entries exercised by the virtual-time
// schedules: the paper's lock plus the two classic queue baselines,
// all natively bounded so LockFor runs the real abandonment paths.
var VTimeLocks = []string{"Recipro", "MCS", "CLH"}

const (
	vtWorkers = 4
	vtRounds  = 6
)

// vtBackoffPolicy is the retry policy timed-out workers sleep under
// between LockFor attempts. Cap > Base, so the decorrelated-jitter
// draw is exercised; determinism comes from the per-worker seed, not
// from suppressing jitter.
var vtBackoffPolicy = backoff.Policy{
	Base: 50 * time.Microsecond,
	Cap:  800 * time.Microsecond,
}

// VTimeTrace builds lockName through the registry pipeline on a fresh
// virtual clock and runs the seeded schedule to completion, returning
// the merged event trace. Workers alternate between unbounded Lock
// (even ids) and LockFor with backoff-paced retries (odd ids); every
// acquire, timeout, backoff delay, and release is logged with its
// virtual timestamp.
func VTimeTrace(lockName string, seed uint64) (string, error) {
	v := clock.NewVirtual()
	l, err := registry.Build(lockName, registry.WithClock(v), registry.WithBounded())
	if err != nil {
		return "", err
	}
	b, ok := l.(bounded.Locker)
	if !ok {
		return "", fmt.Errorf("vtime: %s did not build as a bounded.Locker", lockName)
	}

	var mu sync.Mutex
	var lines []string
	logf := func(w int, format string, a ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf("%9dns w%d %s", v.Now().Nanoseconds(), w, fmt.Sprintf(format, a...)))
		mu.Unlock()
	}

	for wi := 0; wi < vtWorkers; wi++ {
		wi := wi
		rng := xrand.NewXorShift64(seed ^ (uint64(wi+1) * 0x9e3779b97f4a7c15))
		bo := backoff.New(vtBackoffPolicy, seed+uint64(wi)*7919)
		v.Go(func() {
			for r := 0; r < vtRounds; r++ {
				// Distinct, seeded arrival instants: the +1µs floor and
				// per-worker stream keep same-instant collisions rare, and
				// when they do collide the virtual clock's (when, seq)
				// tiebreak keeps the firing order deterministic anyway.
				v.Sleep(time.Duration(1+rng.Intn(120)) * time.Microsecond)
				acquired := false
				if wi%2 == 0 {
					b.Lock()
					acquired = true
					logf(wi, "acquire r%d", r)
				} else {
					budget := time.Duration(20+rng.Intn(100)) * time.Microsecond
					for attempt := 0; attempt < 4; attempt++ {
						if b.LockFor(budget) {
							acquired = true
							logf(wi, "acquire r%d attempt%d", r, attempt)
							bo.Reset()
							break
						}
						logf(wi, "timeout r%d attempt%d budget=%v", r, attempt, budget)
						d := bo.Next()
						logf(wi, "backoff r%d sleep=%v", r, d)
						v.Sleep(d)
					}
					if !acquired {
						logf(wi, "giveup r%d", r)
						continue
					}
				}
				// Hold the lock across a virtual sleep so contenders pile
				// up and the queue handoff paths actually run.
				v.Sleep(time.Duration(5+rng.Intn(40)) * time.Microsecond)
				logf(wi, "release r%d", r)
				b.Unlock()
			}
			logf(wi, "exit")
		})
		// Serialize startup: worker wi must reach its first virtual sleep
		// before wi+1 is registered, so registration order is pinned.
		v.WaitBlocked(wi + 1)
	}
	if err := v.Run(); err != nil {
		return "", fmt.Errorf("vtime: %s seed %d: %w", lockName, seed, err)
	}
	return strings.Join(lines, "\n") + "\n", nil
}

// CheckVTime runs the schedule twice per (lock, seed) and fails on any
// byte difference between the traces — the determinism contract of the
// virtual-time substrate, checked over the real lock implementations.
// It returns the traces of the first run keyed by "lock/seed" so
// callers can report sizes or pin goldens.
func CheckVTime(lockNames []string, seeds []uint64) (map[string]string, error) {
	traces := make(map[string]string, len(lockNames)*len(seeds))
	for _, name := range lockNames {
		for _, seed := range seeds {
			a, err := VTimeTrace(name, seed)
			if err != nil {
				return nil, err
			}
			b, err := VTimeTrace(name, seed)
			if err != nil {
				return nil, err
			}
			if a != b {
				return nil, fmt.Errorf("vtime: %s seed %d: traces diverge across runs\n--- first (%d bytes)\n%s\n--- second (%d bytes)\n%s",
					name, seed, len(a), a, len(b), b)
			}
			traces[fmt.Sprintf("%s/%d", name, seed)] = a
		}
	}
	return traces, nil
}
