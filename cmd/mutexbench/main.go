// Command mutexbench runs the §7.1 MutexBench microbenchmark on real
// goroutines (Track A): T workers loop acquire / critical section /
// release / non-critical section over a central lock, reporting
// aggregate throughput.
//
// Usage:
//
//	mutexbench -mode=max|moderate [-read-frac=0.9]
//	           [-locks=TKT,MCS,...|paper|all|list]
//	           [-threads=1,2,4] [-duration=300ms] [-runs=3] [-csv]
//	           [-json] [-out=file] [-chaos] [-seed=1] [-lockstat]
//
// With -read-frac > 0 the kernel is the read-mostly workload: that
// fraction of iterations are read sections dispatched through the
// lock's strongest read surface (RLock, OptimisticRead, or plain Lock
// as the baseline), the rest exclusive writes. Cells are then labeled
// readmostly/rNN instead of max/moderate.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/lockstat"
	"repro/internal/mutexbench"
	"repro/internal/registry"
)

func main() {
	mode := flag.String("mode", "max", "contention mode: max or moderate")
	readFrac := flag.Float64("read-frac", 0, "fraction of iterations that are read sections (0 = classic exclusive kernel; 0.9 = read-mostly)")
	locksF := registry.NewLocksFlag("paper")
	flag.Var(locksF, "locks", registry.FlagUsage)
	bf := harness.Register(flag.CommandLine, harness.Spec{
		Duration: 300 * time.Millisecond,
		Runs:     3,
		Threads:  "1,2,4,8,16,32",
		Seed:     1,
	})
	lockstatOn := flag.Bool("lockstat", false, "collect per-lock telemetry (counters + latency histograms) and attach it to the report")
	chaosOn := flag.Bool("chaos", false, "arm deterministic fault injection (internal/chaos); results then measure robustness, not clean throughput")
	flag.Parse()

	lfs, listed, err := locksF.Resolve(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if listed {
		return
	}

	if *chaosOn {
		fmt.Fprintf(os.Stderr, "chaos fault injection armed (seed=%d) — throughput numbers are not comparable to clean runs\n", bf.Seed)
		chaos.Enable(chaos.DefaultConfig(bf.Seed))
		defer chaos.Disable()
	}

	ncs := 0
	if *mode == "moderate" {
		ncs = 250
	} else if *mode != "max" {
		fmt.Fprintln(os.Stderr, "unknown -mode; want max or moderate")
		os.Exit(2)
	}
	if *readFrac < 0 || *readFrac > 1 {
		fmt.Fprintln(os.Stderr, "-read-frac must be in [0,1]")
		os.Exit(2)
	}

	threads, err := bf.ThreadCounts()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := mutexbench.Config{
		Duration:    bf.Duration,
		Warmup:      bf.Warmup,
		CSSteps:     1,
		NCSMaxSteps: ncs,
		ReadFrac:    *readFrac,
		Runs:        bf.Runs,
		Seed:        uint32(bf.Seed),
	}
	workload := mutexbench.WorkloadName(cfg)

	// One Stats per lock algorithm, shared across every instance,
	// thread count and run; the waiter sink is installed only while
	// that lock is the one measured, so spin/yield/park attribution is
	// exact. That forces a per-lock sweep instead of one SweepResult
	// call, with the sub-results merged.
	res := mutexbench.SweepResult(nil, nil, cfg)
	res.Env = harness.CaptureEnv(bf.Seed)
	res.SetConfig("mode", *mode)
	var order []string
	for _, lf := range lfs {
		run := lf
		var st *lockstat.Stats
		if *lockstatOn {
			st = lockstat.New()
			fac, err := lf.Factory(registry.WithStats(st))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			run.New = func(clock.Clock) sync.Locker { return fac() }
			lockstat.InstallWaiterSink(st)
		}
		sub := mutexbench.SweepResult([]registry.Entry{run}, threads, cfg)
		res.Cells = append(res.Cells, sub.Cells...)
		if st != nil {
			lockstat.InstallWaiterSink(nil)
			lockstat.Publish("lockstat."+lf.Name, st)
			if res.Lockstat == nil {
				res.Lockstat = map[string]lockstat.Snapshot{}
			}
			res.Lockstat[lf.Name] = st.Snapshot()
			order = append(order, lf.Name)
		}
	}

	out, closeOut, err := bf.OutputFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer closeOut()

	if bf.JSON {
		if err := res.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	fmt.Fprintln(out, experiments.TrackANote)
	t := harness.MatrixTable(res,
		fmt.Sprintf("MutexBench (%s) — aggregate Mops/s, median of %d", workload, bf.Runs))
	if bf.CSV {
		t.RenderCSV(out)
	} else {
		t.Render(out)
	}
	if *lockstatOn {
		fmt.Fprintln(out)
		lockstat.FprintReport(out,
			fmt.Sprintf("Lock telemetry (%s, all thread counts pooled)", workload),
			order, res.Lockstat, bf.CSV)
	}
}
