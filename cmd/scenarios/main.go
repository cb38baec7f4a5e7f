// Command scenarios replays the paper's §4 "Execution Scenarios" —
// uncontended acquire/release, onset of contention (with the zombie
// end-of-segment element), and sustained contention — as annotated
// memory-operation traces of the Reciprocating Lock running on the
// deterministic coherence simulator. Every line is an actual operation
// the algorithm performed; the narration explains it in the paper's
// vocabulary. The output is deterministic (testdata/all.golden pins
// it).
//
// Usage:
//
//	scenarios [-scenario=uncontended|onset|sustained|all]
//
// Exit status: 0 narrated, 2 usage error (including an unknown
// -scenario).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/coherence"
	"repro/internal/simlocks"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "all", "uncontended, onset, sustained, all")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ran := false
	for _, sc := range []struct {
		name string
		fn   func(io.Writer)
	}{
		{"uncontended", uncontended},
		{"onset", onset},
		{"sustained", sustained},
	} {
		if *scenario == sc.name || *scenario == "all" {
			sc.fn(stdout)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintln(stderr, "unknown -scenario")
		return 2
	}
	return 0
}

// narrate wires a trace printer that renders lock-word values in the
// paper's encoding (nil / LOCKEDEMPTY / element names).
func narrate(w io.Writer, sys *coherence.System, sched *coherence.Scheduler, gates map[uint64]string) {
	render := func(v uint64) string {
		switch v {
		case 0:
			return "nil(unlocked)"
		case 1:
			return "LOCKEDEMPTY"
		}
		if n, ok := gates[v]; ok {
			return n
		}
		return fmt.Sprintf("%d", v)
	}
	sched.Trace = func(cpu int, op string, a coherence.Addr, v uint64) {
		name := sys.Name(a)
		if n, ok := gates[uint64(a)]; ok {
			name = n
		}
		fmt.Fprintf(w, "  T%d  %-8s %-12s %s\n", cpu+1, op, name, render(v))
	}
}

func header(w io.Writer, title, blurb string) {
	fmt.Fprintf(w, "\n▶ %s\n%s\n", title, blurb)
}

func uncontended(w io.Writer) {
	header(w, "Simple uncontended Acquire and Release (§4)",
		"  T1 swaps its element into the empty arrival word (returns nil:\n"+
			"  uncontended acquisition) and the release CAS reverts the word\n"+
			"  from E1 back to unlocked.")
	sys := coherence.NewSystem(coherence.Config{CPUs: 1})
	lock := &simlocks.Recipro{}
	lock.Setup(sys, 1)
	sched := coherence.NewScheduler(sys, coherence.RoundRobin, coherence.DefaultCosts, 1, 0)
	narrate(w, sys, sched, map[uint64]string{2: "E1"})
	sched.Run(func(c *coherence.Ctx) {
		lock.Acquire(c, 0)
		fmt.Fprintln(w, "  T1  --- in critical section ---")
		lock.Release(c, 0)
	})
}

func onset(w io.Writer) {
	header(w, "Onset of contention (§4) — the zombie end-of-segment element",
		"  T1 fast-path acquires; T2 and T3 push while T1 runs. T1's release\n"+
			"  CAS fails (the word points at E3, not E1), so T1 detaches the\n"+
			"  segment [E3 E2 E1] and grants T3, conveying E1 — its own buried\n"+
			"  (zombie) element — as the end-of-segment marker. T2, finding its\n"+
			"  successor equal to the marker, quashes it and later unlocks.")
	sys := coherence.NewSystem(coherence.Config{CPUs: 3})
	lock := &simlocks.Recipro{}
	lock.Setup(sys, 3)
	sched := coherence.NewScheduler(sys, coherence.RoundRobin, coherence.DefaultCosts, 1, 0)
	narrate(w, sys, sched, map[uint64]string{2: "E1", 3: "E2", 4: "E3"})
	sched.Run(func(c *coherence.Ctx) {
		switch c.CPU {
		case 0:
			lock.Acquire(c, 0)
			fmt.Fprintln(w, "  T1  --- in critical section (T2, T3 arriving) ---")
			// Long critical section: let both waiters push.
			c.Work(1)
			for i := 0; i < 24; i++ {
				c.Work(1)
			}
			lock.Release(c, 0)
		case 1:
			c.Work(2) // arrive second
			lock.Acquire(c, 1)
			fmt.Fprintln(w, "  T2  --- in critical section (terminus: quashed zombie E1) ---")
			lock.Release(c, 1)
		case 2:
			c.Work(4) // arrive third
			lock.Acquire(c, 2)
			fmt.Fprintln(w, "  T3  --- in critical section ---")
			lock.Release(c, 2)
		}
	})
}

func sustained(w io.Writer) {
	header(w, "Sustained contention (§4) — segments in steady state",
		"  Five threads recirculate with empty critical sections. Watch\n"+
			"  ownership relay through each detached entry segment (gate\n"+
			"  stores), the occasional CAS-fail + detach pair when a segment\n"+
			"  exhausts, and the LIFO-within / FIFO-between admission order\n"+
			"  that settles into the §9.1 palindromic cycle.")
	sys := coherence.NewSystem(coherence.Config{CPUs: 5})
	lock := &simlocks.Recipro{}
	lock.Setup(sys, 5)
	sched := coherence.NewScheduler(sys, coherence.RoundRobin, coherence.DefaultCosts, 1, 0)
	gates := map[uint64]string{}
	for i := 0; i < 5; i++ {
		gates[uint64(2+i)] = fmt.Sprintf("E%d", i+1)
	}
	narrate(w, sys, sched, gates)
	res := sched.Run(func(c *coherence.Ctx) {
		for i := 0; i < 3; i++ {
			lock.Acquire(c, c.CPU)
			c.Admit()
			fmt.Fprintf(w, "  T%d  === ADMITTED (episode %d) ===\n", c.CPU+1, i+1)
			lock.Release(c, c.CPU)
		}
	})
	fmt.Fprintf(w, "\nadmission order: ")
	for _, a := range res.Admissions {
		fmt.Fprintf(w, "%c", 'A'+a)
	}
	fmt.Fprintln(w)
}
