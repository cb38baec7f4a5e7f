// Command modelcheck runs bounded exhaustive interleaving exploration
// (stateless model checking) over a simulated lock: the shared schedule
// search (internal/explore) executes one interleaving of the
// algorithm's memory operations from every Mazurkiewicz class —
// sleep sets skip reorderings of independent operations — checking
// mutual exclusion, deadlock freedom, and MESI invariants.
//
// Usage:
//
//	modelcheck -lock=Recipro -threads=2 -episodes=1 [-budget=500000]
//	modelcheck -lock=all
//
// The exit code distinguishes the three outcomes, so CI can tell a
// proof from a truncated search:
//
//	0 — every selected lock VERIFIED: the full interleaving tree was
//	    explored within budget and no invariant failed;
//	1 — a violation was found (the failing schedule is printed);
//	2 — usage error (unknown lock or flags);
//	3 — INCOMPLETE: no violation found, but at least one lock's tree
//	    was not exhausted within -budget. Not a verification result —
//	    raise -budget or shrink -threads/-episodes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/coherence"
	"repro/internal/explore"
	"repro/internal/simlocks"
	"repro/internal/verdict"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	lockName := fs.String("lock", "Recipro", "simulated lock name, or 'all'")
	threads := fs.Int("threads", 2, "simulated threads")
	episodes := fs.Int("episodes", 1, "episodes per thread")
	budget := fs.Int("budget", 500_000, "maximum schedules to explore")
	if err := fs.Parse(args); err != nil {
		return verdict.ExitUsage
	}

	var targets []simlocks.Factory
	if *lockName == "all" {
		targets = simlocks.Catalog()
	} else {
		mk := simlocks.ByName(*lockName)
		if mk == nil {
			fmt.Fprintf(errOut, "unknown lock %q; known: %v + variants\n", *lockName, simlocks.Names())
			return verdict.ExitUsage
		}
		targets = []simlocks.Factory{mk}
	}

	var statuses []verdict.Status
	for _, mk := range targets {
		name := mk().Name()
		prog := simlocks.CounterProgram(mk, *threads, *episodes)
		res, err := explore.Search(explore.Options{Budget: *budget, Delays: explore.Unbounded},
			prog.Run, coherence.Independent)
		if err != nil {
			fmt.Fprintln(errOut, err)
			statuses = append(statuses, verdict.Incomplete)
			fmt.Fprintln(out, verdict.Line(name, verdict.Incomplete, fmt.Sprintf("search aborted: %v", err)))
			continue
		}
		switch {
		case res.Failed:
			statuses = append(statuses, verdict.Violation)
			fmt.Fprintln(out, verdict.Line(name, verdict.Violation,
				fmt.Sprintf("after %d schedules: %v\nschedule: %s",
					res.Stats.Schedules, prog.Violation, explore.FormatSchedule(res.Schedule))))
		case res.Complete:
			statuses = append(statuses, verdict.Verified)
			fmt.Fprintln(out, verdict.Line(name, verdict.Verified,
				fmt.Sprintf("%d schedules (%d pruned tails) cover every interleaving (%d threads × %d episodes)",
					res.Stats.Schedules, res.Stats.PrunedTails, *threads, *episodes)))
		default:
			statuses = append(statuses, verdict.Incomplete)
			fmt.Fprintln(out, verdict.Line(name, verdict.Incomplete,
				fmt.Sprintf("%d-schedule budget exhausted before the tree was; no violation found, but this is not a verification — raise -budget", res.Stats.Schedules)))
		}
	}
	return verdict.Exit(statuses...)
}
