package coherence

// This file adapts the simulator to the shared schedule search
// (internal/explore): a Program replays one schedule of a simulated
// program per call, and Independent is the reduction's independence
// relation. For small configurations the search covers every
// interleaving of the lock algorithms' memory operations up to
// Mazurkiewicz equivalence, turning "the tests passed" into "no
// interleaving up to this bound violates mutual exclusion or
// deadlocks".

// searchSteps bounds one searched run: a livelocked schedule fails
// after this many operations.
const searchSteps = 5_000_000

// Independent reports whether two ops commute, for the search's sleep
// sets: they are on different threads and either touch different
// lines or both only read. Both orders then leave the same memory, and
// neither can wake or park the other — a park is the parking thread's
// own read, and only a write to its line wakes it.
func Independent(a, b Op) bool {
	return a.Thread != b.Thread &&
		(a.Line == 0 || b.Line == 0 || a.Line != b.Line || !a.Write && !b.Write)
}

// Program is a simulated program under the schedule search.
type Program struct {
	// Build returns a fresh system and the body every CPU runs. Each
	// run needs a new system: the search is stateless replay.
	Build func() (*System, func(c *Ctx))
	// Check inspects a completed run's final state; an error is a
	// violation.
	Check func(sys *System, res Result) error

	// Violation is the failure of the last completed run, nil if it
	// passed: after a search that stopped at a violation, the one it
	// stopped at.
	Violation error
}

// Run executes one schedule of p, with choose picking among the ready
// ops before every step; it is the run function explore.Search takes.
// A deadlock, a livelock or a panic in the body is a violation too.
func (p *Program) Run(choose func(ready []Op) int) (failed bool, err error) {
	sys, body := p.Build()
	abandoned := false
	res, err := NewScheduler(sys, RoundRobin, DefaultCosts, 1, searchSteps).RunChosen(body, func(ready []Op) int {
		j := choose(ready)
		abandoned = j < 0
		return j
	})
	if abandoned {
		return false, nil
	}
	if err == nil {
		err = p.Check(sys, res)
	}
	p.Violation = err
	return err != nil, nil
}
