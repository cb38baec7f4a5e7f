package conformance

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/registry"
)

// Cluster-level properties: the deterministic cluster simulation
// (internal/cluster) is parameterized over the per-shard store lock,
// so every registry entry can be dropped under a replicated, fenced,
// fault-scripted kvstore cluster — the strongest composition the
// repository can subject a lock to. The companion re-acquisition check
// exercises the lease-client pattern (bounded acquisition, expiry,
// backoff, retry) against the real lock implementation under chaos.

// clusterScript is a compressed fault gauntlet that fits the small
// conformance topology: a paused holder with a forced expiry (the
// stale-write window), then a crash/restart through a lease handoff.
const clusterScript = `
at 80ms pause n0 for 150ms
at 100ms expire shard 0
at 120ms expire shard 1
at 200ms crash n1
at 280ms restart n1
`

// CheckClusterFencing runs the cluster simulation with the entry as
// every replica's per-shard store lock and demands a violation-free
// run: lease exclusivity, no stale-fenced applies, version
// monotonicity, bounded retry, and post-heal convergence all hold with
// this lock under the store. The simulation is single-threaded, so
// this is a composition check (the lock behind kvstore.Fenced behind a
// replicated protocol), not a concurrency check — the concurrency
// checks live in the rest of the suite.
func CheckClusterFencing(e registry.Entry, o Options) error {
	if e.SimTwin == "" {
		return skipError("cluster properties run on the SimTwin subset")
	}
	o = o.withDefaults()
	script, err := cluster.ParseScript(clusterScript)
	if err != nil {
		return fmt.Errorf("internal: bad cluster script: %w", err)
	}
	res, err := cluster.Run(cluster.Config{
		Nodes: 3, Shards: 2, Seed: o.Seed,
		Duration: 450 * time.Millisecond,
		Heal:     1200 * time.Millisecond,
		Script:   script,
		NewLock:  func() sync.Locker { return e.New(nil) },
	})
	if err != nil {
		return err
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("cluster invariants broke over this lock:\n%s", res.FailureReport(""))
	}
	if res.Counters.Grants == 0 || res.Counters.Committed == 0 {
		return fmt.Errorf("cluster made no progress over this lock: %+v", res.Counters)
	}
	return nil
}

// CheckLeaseReacquire verifies the lease-client acquisition pattern on
// Boundable entries with the chaos fault points armed: a bounded
// acquisition against a held lock must expire (LockFor returning
// false, LockCtx returning DeadlineExceeded — the local analogue of a
// lease lapsing mid-wait), and the expired waiter must then re-acquire
// after backoff once the holder releases, leaving the lock clean. Both
// bounded forms are exercised for several rounds.
func CheckLeaseReacquire(e registry.Entry, o Options) error {
	if !e.Boundable() {
		return skipError("not boundable")
	}
	o = o.withDefaults()
	l, err := e.Build(registry.WithBounded())
	if err != nil {
		return err
	}
	bl := l.(bounded.Locker)
	chaos.Enable(chaos.DefaultConfig(o.Seed))
	defer chaos.Disable()

	const rounds = 6
	pol := backoff.Policy{Base: 200 * time.Microsecond, Cap: 5 * time.Millisecond}
	for round := 0; round < rounds; round++ {
		useCtx := round%2 == 1
		bl.Lock() // the incumbent lease holder

		// The bounded wait must expire while the lock is held.
		if useCtx {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			err := bl.LockCtx(ctx)
			cancel()
			if err != context.DeadlineExceeded {
				bl.Unlock()
				return fmt.Errorf("round %d: LockCtx on a held lock = %v, want DeadlineExceeded", round, err)
			}
		} else if bl.LockFor(time.Millisecond) {
			bl.Unlock()
			return fmt.Errorf("round %d: LockFor(1ms) succeeded on a held lock", round)
		}

		// An expired waiter retries under backoff while the holder
		// finishes; it must re-acquire (and releases its own
		// acquisition — unlock stays on the acquiring goroutine).
		done := make(chan error, 1)
		go func() {
			bo := backoff.New(pol, o.Seed+uint64(round))
			deadline := clock.Wall.Now() + 10*time.Second
			attempts := 0
			for clock.Wall.Now() < deadline {
				attempts++
				if useCtx {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
					err := bl.LockCtx(ctx)
					cancel()
					if err == nil {
						bl.Unlock()
						done <- nil
						return
					}
					if err != context.DeadlineExceeded {
						done <- fmt.Errorf("LockCtx retry = %v", err)
						return
					}
				} else if bl.LockFor(2 * time.Millisecond) {
					bl.Unlock()
					done <- nil
					return
				}
				clock.Wall.Sleep(bo.Next())
			}
			done <- fmt.Errorf("no re-acquisition within 10s (%d attempts)", attempts)
		}()

		clock.Wall.Sleep(3 * time.Millisecond) // hold across a few retry attempts
		bl.Unlock()

		if err := <-done; err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}

		// The lock must still hand itself over cleanly. Blocking
		// acquire, not LockFor(0): abandoned waiters may leave
		// transient queue residue that the next full acquisition
		// sweeps out (CheckAbandonment's drain probe is blocking for
		// the same reason).
		bl.Lock()
		bl.Unlock()
	}
	return nil
}
