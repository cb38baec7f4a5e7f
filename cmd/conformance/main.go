// Command conformance runs the cross-track conformance suite from
// internal/conformance against registry locks: the registry-wide
// property checks (mutual exclusion under randomized schedules, TryLock
// soundness, the bounded-acquisition contract with chaos stalls,
// abandonment safety, unlock-of-unlocked discipline, read-path sharing)
// plus, for entries declaring a sim twin, the differential checker that
// demands the real lock, its coherence-simulated twin, and the paper's
// abstract admission model agree on admission order, segment
// structure, and the bypass bound over seeded deterministic schedules.
//
// Usage:
//
//	conformance [-locks=all|paper|...|list] [-seed=1] [-schedules=100]
//	            [-duration=0] [-vtime] [-vtime-seeds=3]
//
// With -duration > 0 the suite soaks: it repeats with derived seeds
// until the budget elapses, reporting each pass. Exit status is 0 only
// if every check of every selected lock passes (skips are not
// failures).
//
// With -vtime the wall-clock suite is replaced by the deterministic
// virtual-time mode: real Reciprocating/MCS/CLH bounded-acquisition
// and backoff schedules run under clock.Virtual, each (lock, seed)
// executed twice and required to produce byte-identical traces.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/clock"
	"repro/internal/conformance"
	"repro/internal/registry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("conformance", flag.ContinueOnError)
	locksF := registry.NewLocksFlag("all")
	fs.Var(locksF, "locks", registry.FlagUsage)
	seed := fs.Uint64("seed", 1, "base seed for all randomized schedules")
	schedules := fs.Int("schedules", 100, "differential schedules per twin-declaring lock")
	duration := fs.Duration("duration", 0, "soak budget: repeat the suite with derived seeds until elapsed (0 = one pass)")
	vtime := fs.Bool("vtime", false, "run the deterministic virtual-time schedules instead of the wall-clock suite")
	vtimeSeeds := fs.Int("vtime-seeds", 3, "with -vtime: number of consecutive seeds (starting at -seed) per lock")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *vtime {
		return runVTime(*seed, *vtimeSeeds, out)
	}
	entries, listed, err := locksF.Resolve(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if listed {
		return 0
	}

	deadline := time.Duration(0)
	if *duration > 0 {
		deadline = clock.Wall.Now() + *duration
	}

	fail := false
	for pass := 0; ; pass++ {
		o := conformance.Options{Seed: *seed + uint64(pass)*0x9e3779b97f4a7c15, Schedules: *schedules}
		if pass > 0 {
			fmt.Fprintf(out, "\nsoak pass %d (seed %#x)\n", pass, o.Seed)
		}
		if !runPass(entries, o, out) {
			fail = true
		}
		if deadline == 0 || clock.Wall.Now() >= deadline || fail {
			break
		}
	}
	if fail {
		return 1
	}
	return 0
}

// runVTime executes the deterministic virtual-time schedules: each
// (lock, seed) pair runs twice under clock.Virtual and the traces must
// match byte for byte.
func runVTime(seed uint64, nSeeds int, out *os.File) int {
	if nSeeds < 1 {
		nSeeds = 1
	}
	seeds := make([]uint64, nSeeds)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	traces, err := conformance.CheckVTime(conformance.VTimeLocks, seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conformance -vtime: %v\n", err)
		return 1
	}
	w := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "Lock\tseed\tevents\tbytes\tdeterministic\n")
	for _, name := range conformance.VTimeLocks {
		for _, s := range seeds {
			tr := traces[fmt.Sprintf("%s/%d", name, s)]
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\tyes\n", name, s, strings.Count(tr, "\n"), len(tr))
		}
	}
	w.Flush()
	fmt.Fprintf(out, "\nconformance -vtime: %d lock×seed schedules replayed byte-identically\n", len(traces))
	return 0
}

func runPass(entries []registry.Entry, o conformance.Options, out *os.File) bool {
	ok := true
	w := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	// The header is derived from the suite itself so the columns track
	// Run exactly (they had drifted apart once before).
	fmt.Fprintf(w, "Lock\t%s\tdetail\n", strings.Join(conformance.CheckNames(), "\t"))
	for _, e := range entries {
		r := conformance.Run(e, o)
		detail := ""
		fmt.Fprintf(w, "%s", e.Name)
		for _, c := range r.Results {
			switch {
			case c.Err == nil:
				fmt.Fprint(w, "\tpass")
			case conformance.Skipped(c.Err):
				fmt.Fprint(w, "\tskip")
			default:
				ok = false
				fmt.Fprint(w, "\tFAIL")
				if detail == "" {
					detail = fmt.Sprintf("%s: %v", c.Check, c.Err)
				}
			}
		}
		if detail == "" && r.Diff != nil {
			detail = fmt.Sprintf("%d schedules, %d events, bypass ≤ %d, %d detaches",
				r.Diff.Schedules, r.Diff.Events, r.Diff.MaxBypass, r.Diff.Detaches)
		}
		fmt.Fprintf(w, "\t%s\n", detail)
	}
	w.Flush()
	if !ok {
		fmt.Fprintln(out, "\nconformance: FAIL")
	} else {
		fmt.Fprintln(out, "\nconformance: all selected locks pass")
	}
	return ok
}
