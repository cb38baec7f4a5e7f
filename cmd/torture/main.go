// Command torture runs a randomized multi-lock stress against every
// lock implementation in the repository: worker goroutines acquire
// random subsets of a lock table in canonical order (plural locking),
// mutate lock-protected counters, release in imbalanced order, and
// randomly churn (exit and get replaced). A cancellation lane mixes in
// bounded acquisitions (TryLock / LockFor) that frequently
// abandon mid-wait. Invariant violations — mutual exclusion breaches
// or lost updates — abort with a report that includes the run's seed.
//
// With -chaos, the internal/chaos fault-injection layer is armed with
// the run seed: deterministic delays, forced preemptions at
// linearization points, spurious futex wakeups, and probabilistic
// TryLock failures. The run then exits 1 if a veto point of a surface
// some lock offers (TryLock, LockFor, ReadValidate) was never drawn,
// so a lane that stops calling a vetoed surface fails instead of
// silently leaving it untested. With -stall-timeout > 0, a watchdog
// aborts the run (dumping the seed, chaos report, telemetry, and all
// goroutine stacks) if no worker completes an episode within the
// window.
//
// Usage:
//
//	torture [-duration=10s] [-locks=all|paper|...|list] [-workers=8]
//	        [-table=16] [-seed=1] [-chaos] [-stall-timeout=0] [-lockstat]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/rwlock"
	"repro/internal/xrand"
)

type guarded struct {
	mu sync.Locker
	// bnd is nil when mu is unboundable; rw/opt are set only when mu
	// offers that read path — at most one of them is non-nil,
	// preferring the blocking shared surface.
	bnd    bounded.Locker
	rw     rwlock.RWLocker
	opt    rwlock.OptimisticLocker
	inside int32
	count  int64
}

// runSeed is the seed of the current run, surfaced in every failure
// report so adversarial schedules are reproducible.
var runSeed uint64

func main() {
	duration := flag.Duration("duration", 10*time.Second, "total stress time (split across lock types)")
	locksF := registry.NewLocksFlag("all")
	flag.Var(locksF, "locks", registry.FlagUsage)
	workers := flag.Int("workers", 8, "concurrent workers")
	tableSize := flag.Int("table", 16, "locks per table")
	lockstatOn := flag.Bool("lockstat", false, "run every lock through the telemetry wrapper and print per-type telemetry")
	seed := flag.Uint64("seed", 1, "seed for worker schedules and chaos injection")
	chaosOn := flag.Bool("chaos", false, "arm deterministic fault injection (internal/chaos) with the run seed")
	stallTimeout := flag.Duration("stall-timeout", 0, "abort with a diagnostic dump if no episode completes within this window (0 disables)")
	flag.Parse()

	runSeed = *seed
	lfs, listed, err := locksF.Resolve(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if listed {
		return
	}

	fmt.Printf("torture: seed=%d chaos=%v stall-timeout=%v\n", runSeed, *chaosOn, *stallTimeout)
	if *chaosOn {
		chaos.Enable(chaos.DefaultConfig(runSeed))
		defer chaos.Disable()
	}

	per := *duration / time.Duration(len(lfs))
	telemetry := make(map[string]lockstat.Snapshot)
	var order, vetoPoints []string
	for _, lf := range lfs {
		fmt.Printf("%-12s ", lf.Name)
		var st *lockstat.Stats
		if *lockstatOn {
			// One Stats per lock type across the whole table of
			// instances: torture is a multi-lock workload, so the
			// telemetry is per-algorithm, not per-instance.
			st = lockstat.New()
			lockstat.InstallWaiterSink(st)
		}
		out := torture(lf, per, *workers, *tableSize, st, *stallTimeout, *chaosOn)
		if st != nil {
			lockstat.InstallWaiterSink(nil)
			telemetry[lf.Name] = st.Snapshot()
			order = append(order, lf.Name)
		}
		vetoPoints = append(vetoPoints, out.vetoPoints...)
		line := fmt.Sprintf("ok: %d multi-lock ops, %d acquisitions, %d abandons", out.ops, out.acquires, out.abandons)
		if out.reads > 0 {
			line += fmt.Sprintf(", %d shared reads", out.reads)
		}
		fmt.Println(line)
	}
	fmt.Println("all lock types survived")
	if *lockstatOn {
		fmt.Println()
		lockstat.FprintReport(os.Stdout, "Torture telemetry (per lock type, whole table pooled)", order, telemetry, false)
	}
	if *chaosOn {
		fmt.Println()
		printChaosReport(os.Stdout)
		if missed := undrawn(vetoPoints); len(missed) > 0 {
			fmt.Fprintf(os.Stderr, "torture: (seed %d) no call drew the veto of an offered surface: %s\n",
				runSeed, strings.Join(missed, ", "))
			os.Exit(1)
		}
	}
}

// vetoPointsOf names the chaos veto points of the vetoed surfaces mu
// offers, when built with registry.WithChaosVeto(point): none without
// a TryLock doorway, else .trylock, .lockfor when mu bounds, and
// .validate when it offers the optimistic read.
func vetoPointsOf(point string, mu sync.Locker) []string {
	if _, ok := mu.(bounded.TryLocker); !ok {
		return nil
	}
	pts := []string{point + ".trylock"}
	if _, ok := mu.(bounded.Locker); ok {
		pts = append(pts, point+".lockfor")
	}
	if _, ok := mu.(rwlock.OptimisticLocker); ok {
		pts = append(pts, point+".validate")
	}
	return pts
}

// undrawn returns the points among names that recorded no call.
func undrawn(names []string) []string {
	calls := map[string]uint64{}
	for _, ps := range chaos.Report() {
		calls[ps.Name] = ps.Calls
	}
	var missed []string
	for _, n := range names {
		if calls[n] == 0 {
			missed = append(missed, n)
		}
	}
	return missed
}

// printChaosReport renders the accumulated injection counters, one row
// per point; a point is one call site, so each row names the faulting
// code path.
func printChaosReport(w *os.File) {
	rep := chaos.Report()
	if len(rep) == 0 {
		fmt.Fprintln(w, "chaos: no injection points hit")
		return
	}
	fmt.Fprintf(w, "chaos injection report (seed=%d):\n", runSeed)
	fmt.Fprintf(w, "  %-40s %10s %8s %8s %8s %8s\n", "point", "calls", "delay", "preempt", "fail", "wake")
	for _, ps := range rep {
		fmt.Fprintf(w, "  %-40s %10d %8d %8d %8d %8d\n",
			ps.Name, ps.Calls, ps.Delays, ps.Preempts, ps.Fails, ps.Wakes)
	}
}

// printRecentInjections renders the tail of the chaos injection ring —
// the last faults fired before a stall or violation, each naming its
// point and call site.
func printRecentInjections(w *os.File) {
	recent := chaos.Recent()
	if len(recent) == 0 {
		return
	}
	fmt.Fprintf(w, "last %d chaos injections (oldest first):\n", len(recent))
	for _, inj := range recent {
		fmt.Fprintf(w, "  #%-6d %s\n", inj.Seq, inj.String())
	}
}

// violation aborts the run, always naming the seed. When chaos is
// armed the dump also names the most recent injection sites, so the
// failure report points at the code paths being perturbed.
func violation(format string, args ...any) {
	if chaos.Enabled() {
		printChaosReport(os.Stderr)
		printRecentInjections(os.Stderr)
	}
	panic(fmt.Sprintf("(seed %d) ", runSeed) + fmt.Sprintf(format, args...))
}

// watchdog aborts the process with a diagnostic dump when heartbeat
// stops advancing for longer than window.
func watchdog(name string, heartbeat *atomic.Uint64, window time.Duration, st *lockstat.Stats, stop <-chan struct{}) {
	poll := window / 8
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	last := heartbeat.Load()
	lastChange := clock.Wall.Now()
	for {
		t := clock.Wall.NewTimer(poll)
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C():
		}
		cur := heartbeat.Load()
		if cur != last {
			last = cur
			lastChange = clock.Wall.Now()
			continue
		}
		if clock.Wall.Now()-lastChange < window {
			continue
		}
		fmt.Fprintf(os.Stderr, "\nWATCHDOG STALL: %s made no progress for %v (seed %d)\n", name, window, runSeed)
		if chaos.Enabled() {
			printChaosReport(os.Stderr)
			printRecentInjections(os.Stderr)
		}
		if st != nil {
			snaps := map[string]lockstat.Snapshot{name: st.Snapshot()}
			lockstat.FprintReport(os.Stderr, "Telemetry at stall", []string{name}, snaps, false)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "\n-- goroutine dump --\n%s\n", buf[:n])
		os.Exit(1)
	}
}

// outcome is one lock type's torture totals, and the veto points of
// the surfaces its locks offer when chaos is armed.
type outcome struct {
	ops, acquires, abandons, reads uint64
	vetoPoints                     []string
}

func torture(lf registry.Entry, d time.Duration, workers, tableSize int, st *lockstat.Stats, stallTimeout time.Duration, chaosOn bool) outcome {
	// The lock table is built through the registry's decorator: a
	// chaos veto when fault injection is armed (spurious TryLock,
	// LockFor and ReadValidate failures, uniform across lock types),
	// bounded acquisition for every boundable entry, telemetry when
	// -lockstat is on.
	var opts []registry.Option
	vetoPoint := "registry.veto." + lf.Name
	if chaosOn {
		opts = append(opts, registry.WithChaosVeto(vetoPoint))
	}
	if lf.Boundable() {
		opts = append(opts, registry.WithBounded())
	}
	if st != nil {
		opts = append(opts, registry.WithStats(st))
	}
	locks := make([]*guarded, tableSize)
	for i := range locks {
		mu, err := lf.Build(opts...)
		if err != nil {
			violation("%s: build failed: %v", lf.Name, err)
		}
		g := &guarded{mu: mu}
		g.bnd, _ = mu.(bounded.Locker)
		g.rw, _ = mu.(rwlock.RWLocker)
		if g.rw == nil {
			g.opt, _ = mu.(rwlock.OptimisticLocker)
		}
		locks[i] = g
	}
	var stop atomic.Bool
	var totalOps, totalAcq, totalAbandon, totalReads atomic.Uint64
	var expected atomic.Int64
	var heartbeat atomic.Uint64
	var wg sync.WaitGroup

	watchdogStop := make(chan struct{})
	if stallTimeout > 0 {
		go watchdog(lf.Name, &heartbeat, stallTimeout, st, watchdogStop)
	}
	defer close(watchdogStop)

	// worker performs random multi-lock episodes; maxOps == 0 means
	// "until stopped" (long-lived workers), otherwise the worker
	// retires after maxOps episodes (churn lane).
	worker := func(seed uint64, maxOps uint64) {
		defer wg.Done()
		rng := xrand.NewXorShift64(seed)
		var ops, acq uint64
		for !stop.Load() && (maxOps == 0 || ops < maxOps) {
			// Pick a random subset (1..4 locks), acquire in
			// canonical index order, release in a rotated order.
			n := 1 + rng.Intn(4)
			var idx [4]int
			last := -1
			k := 0
			for j := 0; j < n && last < tableSize-1; j++ {
				next := last + 1 + rng.Intn(tableSize-last-1)
				idx[k] = next
				k++
				last = next
			}
			held := idx[:k]
			for _, i := range held {
				locks[i].mu.Lock()
				if atomic.AddInt32(&locks[i].inside, 1) != 1 {
					violation("%s: mutual exclusion violated on lock %d", lf.Name, i)
				}
			}
			for _, i := range held {
				locks[i].count++
				expected.Add(1)
			}
			if ops%64 == 0 {
				runtime.Gosched() // force queueing on 1 CPU
			}
			rot := rng.Intn(k)
			for j := 0; j < k; j++ {
				i := held[(j+rot)%k]
				atomic.AddInt32(&locks[i].inside, -1)
				locks[i].mu.Unlock()
			}
			acq += uint64(k)
			ops++
			heartbeat.Add(1)
		}
		totalOps.Add(ops)
		totalAcq.Add(acq)
	}

	// canceller is the cancellation lane: bounded acquisitions with
	// short budgets against single random locks, so abandonment paths
	// run concurrently with the blocking workers. A failed bounded
	// acquire must leave the waiter lock-free; a successful one is a
	// normal episode and must uphold the same invariants.
	canceller := func(seed uint64) {
		defer wg.Done()
		rng := xrand.NewXorShift64(seed)
		var ops, acq, abandons uint64
		for !stop.Load() {
			g := locks[rng.Intn(tableSize)]
			if g.bnd == nil {
				return // unboundable lock type: no cancellation lane
			}
			var acquired bool
			if rng.Intn(3) == 0 {
				acquired = g.bnd.TryLock()
			} else {
				acquired = g.bnd.LockFor(time.Duration(rng.Intn(100)) * time.Microsecond)
			}
			if acquired {
				if atomic.AddInt32(&g.inside, 1) != 1 {
					violation("%s: mutual exclusion violated after bounded acquire", lf.Name)
				}
				g.count++
				expected.Add(1)
				atomic.AddInt32(&g.inside, -1)
				g.bnd.Unlock()
				acq++
			} else {
				abandons++
			}
			ops++
			heartbeat.Add(1)
		}
		totalOps.Add(ops)
		totalAcq.Add(acq)
		totalAbandon.Add(abandons)
	}

	// reader is the read lane, spawned only for lock types that offer a
	// read path (the table is homogeneous, so locks[0] speaks for all):
	// shared readers must never overlap a writer's critical section
	// (inside != 0), and the guarded counter must hold still under a
	// held read lock; for optimistic-only locks, a validated optimistic
	// section must not have overlapped a writer. Optimistic reads
	// alternate between OptimisticRead and a manual ReadBegin →
	// load → ReadValidate section, which is the surface the veto
	// fails; a section that does not validate is discarded.
	reader := func(seed uint64) {
		defer wg.Done()
		rng := xrand.NewXorShift64(seed)
		var reads uint64
		for !stop.Load() {
			g := locks[rng.Intn(tableSize)]
			if g.rw != nil {
				g.rw.RLock()
				if atomic.LoadInt32(&g.inside) != 0 {
					violation("%s: writer inside critical section while shared reader admitted", lf.Name)
				}
				c1 := g.count
				if reads%16 == 0 {
					runtime.Gosched()
				}
				if g.count != c1 {
					violation("%s: guarded counter moved under a held read lock", lf.Name)
				}
				g.rw.RUnlock()
			} else {
				var snap int32
				validated := true
				if reads%2 == 0 {
					g.opt.OptimisticRead(func() { snap = atomic.LoadInt32(&g.inside) })
				} else {
					stamp := g.opt.ReadBegin()
					snap = atomic.LoadInt32(&g.inside)
					validated = g.opt.ReadValidate(stamp)
				}
				if validated && snap != 0 {
					violation("%s: validated optimistic section overlapped a writer", lf.Name)
				}
			}
			reads++
			heartbeat.Add(1)
		}
		totalReads.Add(reads)
	}

	// Fixed long-lived workers plus a churn lane: short-lived workers
	// are spawned back to back, exercising dynamic goroutine arrival
	// and departure (§5: threads created and destroyed dynamically).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go worker(runSeed+uint64(w)+1, 0)
	}
	wg.Add(2)
	go canceller(runSeed + 500)
	go canceller(runSeed + 501)
	if locks[0].rw != nil || locks[0].opt != nil {
		wg.Add(2)
		go reader(runSeed + 700)
		go reader(runSeed + 701)
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		seed := runSeed + 1000
		for !stop.Load() {
			var cwg sync.WaitGroup
			cwg.Add(1)
			wg.Add(1)
			go func(s uint64) {
				defer cwg.Done()
				worker(s, 200)
			}(seed)
			seed++
			cwg.Wait()
		}
	}()

	clock.Wall.Sleep(d)
	stop.Store(true)
	wg.Wait()
	<-churnDone

	// Verify lost-update freedom.
	var got int64
	for _, g := range locks {
		g.mu.Lock()
		got += g.count
		g.mu.Unlock()
	}
	if got != expected.Load() {
		violation("%s: lost updates: counted %d, expected %d", lf.Name, got, expected.Load())
	}
	out := outcome{ops: totalOps.Load(), acquires: totalAcq.Load(), abandons: totalAbandon.Load(), reads: totalReads.Load()}
	if chaosOn {
		out.vetoPoints = vetoPointsOf(vetoPoint, locks[0].mu)
	}
	return out
}
