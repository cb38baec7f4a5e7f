package coherence_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/explore"
	"repro/internal/simlocks"
)

var exhaustive = explore.Options{Delays: explore.Unbounded}

// search runs the shared schedule search over p, exhaustively, with or
// without sleep-set reduction.
func search(t *testing.T, p *coherence.Program, noPrune bool) *explore.Result {
	t.Helper()
	opts := exhaustive
	opts.Budget = -1
	opts.NoPrune = noPrune
	res, err := explore.Search(opts, p.Run, coherence.Independent)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ticketLock is a correct sim ticket lock around a load/store counter
// increment.
func ticketLock(threads int) *coherence.Program {
	var counter coherence.Addr
	return &coherence.Program{
		Build: func() (*coherence.System, func(c *coherence.Ctx)) {
			sys := coherence.NewSystem(coherence.Config{CPUs: threads})
			ticket := sys.Alloc("ticket")
			grant := sys.Alloc("grant")
			counter = sys.Alloc("counter")
			return sys, func(c *coherence.Ctx) {
				tx := c.FetchAdd(ticket, 1)
				c.SpinUntil(grant, func(v uint64) bool { return v == tx })
				c.Admit()
				v := c.Load(counter)
				c.Store(counter, v+1)
				g := c.Load(grant)
				c.Store(grant, g+1)
			}
		},
		Check: func(sys *coherence.System, _ coherence.Result) error {
			if got := sys.Peek(counter); got != uint64(threads) {
				return fmt.Errorf("counter = %d, want %d", got, threads)
			}
			return sys.CheckInvariants()
		},
	}
}

// plantedBugs are broken two-thread programs the search must catch:
// each has a schedule that loses an increment or deadlocks.
var plantedBugs = []struct {
	name     string
	deadlock bool // the violation is a deadlock, not a failed check
	prog     func() *coherence.Program
}{
	{
		// Single-shot test-then-set: wait until the word looks free,
		// then store — both threads can pass the test.
		name: "test-then-set",
		prog: func() *coherence.Program {
			var counter coherence.Addr
			return &coherence.Program{
				Build: func() (*coherence.System, func(c *coherence.Ctx)) {
					sys := coherence.NewSystem(coherence.Config{CPUs: 2})
					word := sys.Alloc("brokenlock")
					counter = sys.Alloc("counter")
					return sys, func(c *coherence.Ctx) {
						c.SpinUntil(word, func(v uint64) bool { return v == 0 })
						c.Store(word, 1)
						c.Admit()
						v := c.Load(counter)
						c.Store(counter, v+1)
						c.Store(word, 0)
					}
				},
				Check: func(sys *coherence.System, _ coherence.Result) error {
					if got := sys.Peek(counter); got != 2 {
						return fmt.Errorf("counter = %d, want 2 (exclusion violated)", got)
					}
					return nil
				},
			}
		},
	},
	{
		// Lost wakeup: the signaler checks for a waiter before the
		// waiter registers under some interleaving, and the waiter then
		// parks forever.
		name:     "lost-wakeup",
		deadlock: true,
		prog: func() *coherence.Program {
			return &coherence.Program{
				Build: func() (*coherence.System, func(c *coherence.Ctx)) {
					sys := coherence.NewSystem(coherence.Config{CPUs: 2})
					word := sys.Alloc("lostwakeup")
					return sys, func(c *coherence.Ctx) {
						if c.CPU == 0 {
							c.Store(word, 1)
							c.SpinUntil(word, func(v uint64) bool { return v == 2 })
						} else if c.Load(word) == 1 {
							c.Store(word, 2)
						}
					}
				},
				Check: func(*coherence.System, coherence.Result) error { return nil },
			}
		},
	},
	{
		// Torn ticket: the ticket is drawn with a load and a store
		// instead of one fetch-and-add, so both threads can draw the
		// same ticket and share the critical section.
		name: "torn-ticket",
		prog: func() *coherence.Program {
			var counter coherence.Addr
			return &coherence.Program{
				Build: func() (*coherence.System, func(c *coherence.Ctx)) {
					sys := coherence.NewSystem(coherence.Config{CPUs: 2})
					ticket := sys.Alloc("ticket")
					grant := sys.Alloc("grant")
					counter = sys.Alloc("counter")
					return sys, func(c *coherence.Ctx) {
						tx := c.Load(ticket)
						c.Store(ticket, tx+1)
						c.SpinUntil(grant, func(v uint64) bool { return v >= tx })
						c.Admit()
						v := c.Load(counter)
						c.Store(counter, v+1)
						c.FetchAdd(grant, 1)
					}
				},
				Check: func(sys *coherence.System, _ coherence.Result) error {
					if got := sys.Peek(counter); got != 2 {
						return fmt.Errorf("counter = %d, want 2 (exclusion violated)", got)
					}
					return nil
				},
			}
		},
	},
}

func plantedBug(t *testing.T, name string) *coherence.Program {
	for _, b := range plantedBugs {
		if b.name == name {
			return b.prog()
		}
	}
	t.Fatalf("no planted bug %q", name)
	return nil
}

// A correct sim ticket lock must survive exhaustive exploration of all
// interleavings (2 threads × 1 episode with a load/store critical
// section). SpinUntil parks rather than busy-iterating, so the
// decision tree stays small enough to exhaust.
func TestExploreTicketLockExhaustive(t *testing.T) {
	p := ticketLock(2)
	res := search(t, p, false)
	if res.Failed {
		t.Fatalf("violation after %d schedules: %v (schedule %v)", res.Stats.Schedules, p.Violation, res.Schedule)
	}
	if !res.Verified() {
		t.Fatalf("tree not exhausted: %+v", res.Stats)
	}
	t.Logf("ticket lock verified over %d schedules", res.Stats.Schedules)
}

// A deliberately broken lock (single-shot test-then-set: no atomicity)
// must be caught: some interleaving admits both threads and loses an
// increment.
func TestExploreFindsBrokenLock(t *testing.T) {
	p := plantedBug(t, "test-then-set")
	res := search(t, p, false)
	if !res.Failed || !strings.Contains(p.Violation.Error(), "exclusion violated") {
		t.Fatalf("explorer failed to find the race in %d schedules (violation %v)", res.Stats.Schedules, p.Violation)
	}
	t.Logf("found violation after %d schedules: %v", res.Stats.Schedules, p.Violation)
}

// The explorer must catch lost-wakeup deadlocks.
func TestExploreFindsDeadlock(t *testing.T) {
	p := plantedBug(t, "lost-wakeup")
	res := search(t, p, false)
	if !res.Failed || !strings.Contains(p.Violation.Error(), "deadlock") {
		t.Fatalf("explorer failed to find the lost-wakeup deadlock in %d schedules (violation %v)",
			res.Stats.Schedules, p.Violation)
	}
	t.Logf("deadlock found after %d schedules: %v", res.Stats.Schedules, p.Violation)
}

// Schedule budget is respected when the tree is too large: every op
// is a write to one line, so nothing commutes.
func TestExploreBudget(t *testing.T) {
	p := &coherence.Program{
		Build: func() (*coherence.System, func(c *coherence.Ctx)) {
			sys := coherence.NewSystem(coherence.Config{CPUs: 3})
			a := sys.Alloc("a")
			return sys, func(c *coherence.Ctx) {
				for i := 0; i < 6; i++ {
					c.FetchAdd(a, 1)
				}
			}
		},
		Check: func(*coherence.System, coherence.Result) error { return nil },
	}
	opts := exhaustive
	opts.Budget = 25
	res, err := explore.Search(opts, p.Run, coherence.Independent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Schedules != 25 || res.Complete || res.Verified() {
		t.Fatalf("schedules=%d complete=%v, want budget-limited 25", res.Stats.Schedules, res.Complete)
	}
}

// finalStates runs p's search and collects every distinct final
// (memory, admission order) state it reaches.
func finalStates(t *testing.T, p *coherence.Program, noPrune bool) (map[string]bool, *explore.Result) {
	t.Helper()
	states := map[string]bool{}
	check := p.Check
	p.Check = func(sys *coherence.System, res coherence.Result) error {
		var b strings.Builder
		for a := coherence.Addr(1); sys.Name(a) != ""; a++ {
			fmt.Fprintf(&b, "%d ", sys.Peek(a))
		}
		fmt.Fprintf(&b, "admitted %v", res.Admissions)
		states[b.String()] = true
		return check(sys, res)
	}
	return states, search(t, p, noPrune)
}

// TestPruningAgreesWithUnpruned is the sleep-set soundness net over
// the simulator's independence relation: the reduced search and the
// unreduced (NoPrune) one must reach exactly the same set of final
// (memory, admission order) states, and the same verdict on every
// planted bug. An independence claim that is too generous shows up
// here as a state only the unreduced search reaches.
func TestPruningAgreesWithUnpruned(t *testing.T) {
	type lockCase struct {
		mk                simlocks.Factory
		threads, episodes int
	}
	var cases []lockCase
	for _, mk := range simlocks.Catalog() {
		cases = append(cases, lockCase{mk, 2, 1})
	}
	// The 2×2 trees the unreduced search exhausts in seconds.
	for _, name := range []string{"TKT", "ABQL", "CLH"} {
		cases = append(cases, lockCase{simlocks.ByName(name), 2, 2})
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%dx%d", c.mk().Name(), c.threads, c.episodes), func(t *testing.T) {
			reduced, rres := finalStates(t, simlocks.CounterProgram(c.mk, c.threads, c.episodes), false)
			full, fres := finalStates(t, simlocks.CounterProgram(c.mk, c.threads, c.episodes), true)
			if !rres.Verified() || !fres.Verified() {
				t.Fatalf("not verified: reduced %+v, unreduced %+v", rres, fres)
			}
			if len(reduced) != len(full) {
				t.Errorf("reduced search reached %d final states, unreduced %d", len(reduced), len(full))
			}
			for s := range full {
				if !reduced[s] {
					t.Errorf("final state only the unreduced search reaches: %s", s)
				}
			}
			if rres.Stats.Schedules > fres.Stats.Schedules {
				t.Errorf("reduced search ran more schedules (%d) than unreduced (%d)",
					rres.Stats.Schedules, fres.Stats.Schedules)
			}
		})
	}

	for _, b := range plantedBugs {
		pruned, full := b.prog(), b.prog()
		pres, fres := search(t, pruned, false), search(t, full, true)
		if !pres.Failed || !fres.Failed {
			t.Errorf("%s: violation missed (reduced=%v unreduced=%v)", b.name, pres.Failed, fres.Failed)
			continue
		}
		for _, v := range []error{pruned.Violation, full.Violation} {
			if got := strings.Contains(v.Error(), "deadlock"); got != b.deadlock {
				t.Errorf("%s: violation %q, want deadlock=%v", b.name, v, b.deadlock)
			}
		}
	}
}
