package conformance

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/registry"
)

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
