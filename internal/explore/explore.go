// Package explore is a stateless model checker over any deterministic
// system whose only nondeterminism is a sequence of scheduling choices.
// The caller supplies three things: the ready set offered at each
// scheduling point (the argument of the chooser), a Run function that
// replays the system from scratch under a chooser, and an independence
// relation over ready events. The search is depth-first over branch
// points (scheduling points with two or more ready events),
// replay-based (no state snapshotting — a prefix of choices
// re-executes the system up to the frontier), delay-bounded on
// request, and pruned with sleep sets keyed on the independence
// relation.
//
// Sleep sets (Godefroid) never drop a Mazurkiewicz trace: an event
// that was explored at an ancestor branch stays asleep only across
// events independent of it, and a run whose every ready event sleeps
// is abandoned, because each of its continuations is equivalent to one
// explored in a sibling subtree. Soundness therefore rests entirely on
// the relation: two events may be called independent only when
// executing them in either order from any state yields the same state
// and neither enables or disables the other.
package explore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Unbounded disables delay bounding (full DFS); see Options.Delays.
const Unbounded = -1

// DefaultBudget caps completed schedules when Options.Budget is zero.
const DefaultBudget = 200_000

// Options configures one search.
type Options struct {
	// MaxBranch caps branch points per schedule; beyond it the run
	// continues canonically and the search reports DepthCapped (the
	// tree was truncated, so a clean result is INCOMPLETE, not
	// VERIFIED). Zero means unlimited.
	MaxBranch int

	// Budget caps completed schedules; exhausting it with work left
	// reports an incomplete search. Zero selects DefaultBudget;
	// negative means unlimited.
	Budget int

	// Delays is the delay-bounding budget: picking candidate j at a
	// branch point costs j (it delays j earlier-ready events), and a
	// schedule's total cost may not exceed Delays. Zero explores
	// exactly the canonical schedule; Unbounded (negative) disables
	// the bound. Note the zero value is the tightest bound, not the
	// default — use Unbounded for exhaustive search.
	Delays int

	// NoPrune disables sleep-set pruning: the unreduced reference
	// search that soundness tests compare the reduced one against.
	NoPrune bool
}

// Stats counts search work.
type Stats struct {
	Schedules   int // completed schedules (each a full replay)
	PrunedTails int // runs abandoned because every ready event was slept
	Branches    int // distinct branch points discovered
	Slept       int // candidate selections skipped by sleep sets
	MaxDepth    int // deepest branch-point stack reached
}

// Result is one search's outcome.
type Result struct {
	// Complete reports that the schedule tree (within the configured
	// MaxBranch/Delays bounds) was exhausted.
	Complete bool
	// DepthCapped reports that some schedule hit MaxBranch and ran a
	// canonical tail — the tree was truncated below the cap.
	DepthCapped bool
	// Pruning reports whether sleep-set pruning was active.
	Pruning bool

	// Failed reports that the search stopped at a run that violated a
	// property; Schedule is that run's branch-choice sequence,
	// replayable with Replay.
	Failed   bool
	Schedule []int

	Stats Stats
}

// Verified reports a clean exhaustive result: no violation, the tree
// exhausted, no depth truncation. A clean but un-Verified result is
// the INCOMPLETE verdict.
func (r *Result) Verified() bool {
	return !r.Failed && r.Complete && !r.DepthCapped
}

// Run replays the system from its initial state, calling choose at
// every scheduling point with the events ready there, in a
// deterministic order; choose returns the index of the event to
// execute. A negative index abandons the run: Run must stop as soon as
// it can, and its outcome is ignored. Run reports whether the run
// violated a property; an error means the run could not be carried out
// at all.
type Run[E any] func(choose func(ready []E) int) (failed bool, err error)

// frame is one branch point on the DFS stack.
type frame[E any] struct {
	cands  []E   // the ready set, identical on every replay
	choice int   // index currently being explored
	order  []int // indices explored so far, in order (last = choice)
	sleep  []E   // sleep set on entry (never mutated)
}

type search[E comparable] struct {
	opts   Options
	indep  func(a, b E) bool // nil when pruning is off
	stack  []*frame[E]
	stats  Stats
	capped bool
}

// Search enumerates the schedules of run, stopping at the first
// violating one. independent may be nil, which keeps every sleep set
// empty (no reduction). Search returns an error only when a run fails
// to execute or breaks the determinism contract (a replayed prefix
// offering a different ready set); violations come back in Result.
func Search[E comparable](opts Options, run Run[E], independent func(a, b E) bool) (*Result, error) {
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	s := &search[E]{opts: opts}
	if !opts.NoPrune {
		s.indep = independent
	}
	res := &Result{Pruning: s.indep != nil}
	for {
		if opts.Budget > 0 && s.stats.Schedules >= opts.Budget {
			break // budget exhausted with work remaining: incomplete
		}
		failed, pruned, err := s.runOne(run)
		if err != nil {
			return nil, err
		}
		if pruned {
			s.stats.PrunedTails++
		} else {
			s.stats.Schedules++
			if failed {
				res.Failed = true
				res.Schedule = s.schedule()
				res.Stats = s.stats
				return res, nil
			}
		}
		if !s.advance() {
			res.Complete = true
			break
		}
	}
	res.DepthCapped = s.capped
	res.Stats = s.stats
	return res, nil
}

// schedule returns the current stack's choice sequence.
func (s *search[E]) schedule() []int {
	out := make([]int, len(s.stack))
	for i, f := range s.stack {
		out[i] = f.choice
	}
	return out
}

// runOne replays the stack's choice prefix and extends it to a leaf,
// pushing a frame for every new branch point. It reports pruned=true
// when the run was abandoned at an all-slept frontier.
func (s *search[E]) runOne(run Run[E]) (failed, pruned bool, err error) {
	depth := 0
	delaysUsed := 0
	capped := false
	var pend []E // sleep set for the next frontier
	var replayErr error

	choose := func(ready []E) int {
		if pruned || replayErr != nil {
			return -1
		}
		if len(ready) < 2 {
			// Forced dispatch. A forced event that is itself slept
			// means this whole continuation is covered elsewhere.
			if len(ready) == 1 {
				if slices.Contains(pend, ready[0]) {
					pruned = true
					return -1
				}
				// Executing any event wakes every sleeping event
				// dependent with it.
				pend = s.wake(pend, ready[0])
			}
			return 0
		}
		if depth < len(s.stack) {
			// Replaying the prefix.
			f := s.stack[depth]
			if msg := mismatch(f.cands, ready); msg != "" {
				replayErr = fmt.Errorf("explore: nondeterministic replay at branch %d: %s", depth, msg)
				return -1
			}
			depth++
			delaysUsed += f.choice
			pend = s.childSleep(f, ready[f.choice])
			return f.choice
		}
		// Frontier: a new branch point.
		if capped || (s.opts.MaxBranch > 0 && len(s.stack) >= s.opts.MaxBranch) {
			capped = true
			pend = s.wake(pend, ready[0])
			return 0
		}
		f := &frame[E]{cands: slices.Clone(ready), sleep: pend}
		j := s.selectNext(f, delaysUsed)
		if j < 0 {
			pruned = true
			return -1
		}
		f.choice = j
		f.order = append(f.order, j)
		s.stack = append(s.stack, f)
		s.stats.Branches++
		if len(s.stack) > s.stats.MaxDepth {
			s.stats.MaxDepth = len(s.stack)
		}
		depth++
		delaysUsed += j
		pend = s.childSleep(f, ready[j])
		return j
	}

	failed, err = run(choose)
	switch {
	case replayErr != nil:
		return false, false, replayErr
	case pruned:
		return false, true, nil
	case err != nil:
		return false, false, err
	}
	if capped {
		s.capped = true
	}
	return failed, false, nil
}

// selectNext picks the lowest-index candidate of f not yet tried, not
// slept, and within the delay budget. Candidate j costs j delays, so
// costs rise with the index and the scan can stop at the budget.
func (s *search[E]) selectNext(f *frame[E], delaysUsed int) int {
	for j, e := range f.cands {
		if s.opts.Delays >= 0 && delaysUsed+j > s.opts.Delays {
			break
		}
		if slices.Contains(f.order, j) {
			continue
		}
		if s.indep != nil && slices.Contains(f.sleep, e) {
			s.stats.Slept++
			continue
		}
		return j
	}
	return -1
}

// advance moves the DFS to the next unexplored schedule: find the
// deepest frame with an untried, unslept, in-budget candidate, select
// it, and drop everything deeper. False means the tree is exhausted.
func (s *search[E]) advance() bool {
	for len(s.stack) > 0 {
		f := s.stack[len(s.stack)-1]
		used := 0
		for _, g := range s.stack[:len(s.stack)-1] {
			used += g.choice
		}
		if j := s.selectNext(f, used); j >= 0 {
			f.choice = j
			f.order = append(f.order, j)
			return true
		}
		s.stack = s.stack[:len(s.stack)-1]
	}
	return false
}

// childSleep computes the sleep set below frame f's current choice:
// f's own sleep set plus every candidate explored at f before this
// choice, keeping only events independent of the chosen one.
func (s *search[E]) childSleep(f *frame[E], chosen E) []E {
	if s.indep == nil {
		return nil
	}
	var out []E
	for _, e := range f.sleep {
		if s.indep(e, chosen) {
			out = append(out, e)
		}
	}
	for _, j := range f.order[:len(f.order)-1] {
		if e := f.cands[j]; s.indep(e, chosen) {
			out = append(out, e)
		}
	}
	return out
}

// wake drops every sleeping event dependent with the executed one:
// sleep persists only across independent events. The input is never
// mutated (frames alias it).
func (s *search[E]) wake(sleep []E, executed E) []E {
	if len(sleep) == 0 {
		return sleep
	}
	var out []E
	for _, e := range sleep {
		if s.indep(e, executed) {
			out = append(out, e)
		}
	}
	return out
}

// mismatch compares a frame's recorded ready set with the one seen on
// replay; any difference breaks the determinism contract.
func mismatch[E comparable](want, got []E) string {
	if len(want) != len(got) {
		return fmt.Sprintf("ready set size %d, recorded %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("candidate %d is %+v, recorded %+v", i, got[i], want[i])
		}
	}
	return ""
}

// FixedSchedule returns a chooser that replays a branch-choice sequence: at
// the i-th branch point (a call with two or more ready events) it
// picks choices[i], and past the end of the list — or for out-of-range
// entries — it falls back to the canonical choice 0. Calls with fewer
// than two events never consume a choice, which keeps search and
// replay aligned on what counts as a branch.
func FixedSchedule[E any](choices []int) func(ready []E) int {
	i := 0
	return func(ready []E) int {
		if len(ready) < 2 || i >= len(choices) {
			return 0
		}
		c := choices[i]
		i++
		if c < 0 || c >= len(ready) {
			return 0
		}
		return c
	}
}

// Replay runs the system once under the given branch-choice schedule.
// An empty (or nil) schedule is the canonical order.
func Replay[E any](run Run[E], schedule []int) (failed bool, err error) {
	return run(FixedSchedule[E](schedule))
}

// Shrink delta-debugs a failing schedule down to a 1-minimal one:
// fails replays a candidate schedule and reports whether it still
// fails the way the input did. Reductions, applied to fixpoint: drop
// the whole schedule (canonical order), remove single entries, and
// zero nonzero entries. Every trial is a deterministic replay, so the
// same failure always shrinks to the same schedule.
func Shrink(schedule []int, fails func([]int) bool) []int {
	sched := slices.Clone(schedule)
	for changed := true; changed; {
		changed = false
		// Whole-schedule drop first: many failures need no
		// reordering at all, and this skips the per-entry walk.
		if len(sched) > 0 && fails(nil) {
			return nil
		}
		for i := 0; i < len(sched); i++ {
			trial := slices.Delete(slices.Clone(sched), i, i+1)
			if fails(trial) {
				sched = trial
				changed = true
				i--
			}
		}
		for i := range sched {
			if sched[i] == 0 {
				continue
			}
			trial := slices.Clone(sched)
			trial[i] = 0
			if fails(trial) {
				sched = trial
				changed = true
			}
		}
	}
	return sched
}

// FormatSchedule renders a schedule as a comma-joined list ("2,0,1");
// the empty schedule renders as "" and means canonical order.
func FormatSchedule(schedule []int) string {
	parts := make([]string, len(schedule))
	for i, c := range schedule {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses FormatSchedule's output.
func ParseSchedule(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		c, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || c < 0 {
			return nil, fmt.Errorf("explore: bad schedule entry %q", p)
		}
		out[i] = c
	}
	return out, nil
}
