package explore

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// step is one event of the toy system: process p reads or writes
// variable v.
type step struct {
	p, v  int
	write bool
}

func independent(a, b step) bool {
	return a.p != b.p && (a.v != b.v || !a.write && !b.write)
}

// toy is a deterministic system of processes, each a fixed sequence of
// steps. A write stores the writer's id (plus one); a run's final state
// is what each process read, in its own order, plus the final
// variables. bad, if set, marks final states that count as failures.
type toy struct {
	procs  [][]step
	bad    func(state string) bool
	finals map[string]bool
}

func (ty *toy) run(choose func([]step) int) (bool, error) {
	pc := make([]int, len(ty.procs))
	vars := map[int]int{}
	reads := make([]string, len(ty.procs))
	for {
		var ready []step
		for p, prog := range ty.procs {
			if pc[p] < len(prog) {
				ready = append(ready, prog[pc[p]])
			}
		}
		if len(ready) == 0 {
			break
		}
		j := choose(ready)
		if j < 0 {
			return false, nil
		}
		e := ready[j]
		if e.write {
			vars[e.v] = e.p + 1
		} else {
			reads[e.p] += fmt.Sprintf("p%d:v%d=%d ", e.p, e.v, vars[e.v])
		}
		pc[e.p]++
	}
	state := fmt.Sprint(reads, vars)
	if ty.finals != nil {
		ty.finals[state] = true
	}
	return ty.bad != nil && ty.bad(state), nil
}

// racy is three processes over two variables: p0 and p1 race on v0,
// p2 touches only v1, so most of its reorderings commute.
func racy() *toy {
	return &toy{procs: [][]step{
		{{0, 0, true}, {0, 1, false}},
		{{1, 0, false}, {1, 0, true}},
		{{2, 1, true}, {2, 1, false}},
	}}
}

// TestSleepSetsKeepEveryFinalState checks the reduction on a system
// small enough to enumerate: the reduced search reaches exactly the
// unreduced search's final states, in fewer schedules.
func TestSleepSetsKeepEveryFinalState(t *testing.T) {
	search := func(noPrune bool) (map[string]bool, *Result) {
		ty := racy()
		ty.finals = map[string]bool{}
		res, err := Search(Options{Delays: Unbounded, NoPrune: noPrune}, ty.run, independent)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified() {
			t.Fatalf("noPrune=%v: not verified: %+v", noPrune, res)
		}
		return ty.finals, res
	}
	reduced, rres := search(false)
	full, fres := search(true)
	if !reflect.DeepEqual(reduced, full) {
		t.Errorf("final states differ:\nreduced   %v\nunreduced %v", reduced, full)
	}
	if !rres.Pruning || fres.Pruning {
		t.Errorf("pruning flags: reduced=%v unreduced=%v", rres.Pruning, fres.Pruning)
	}
	if rres.Stats.Schedules >= fres.Stats.Schedules {
		t.Errorf("reduction ran %d schedules, unreduced %d", rres.Stats.Schedules, fres.Stats.Schedules)
	}
	// 2 steps × 3 processes interleave 6!/(2!·2!·2!) = 90 ways.
	if fres.Stats.Schedules != 90 {
		t.Errorf("unreduced search ran %d schedules, want 90", fres.Stats.Schedules)
	}
}

// TestSearchFindsReplaysAndShrinks: a failure that needs p1 to read v0
// after p0's write is found, its schedule replays to the failure, and
// shrinking leaves a 1-minimal schedule that still fails.
func TestSearchFindsReplaysAndShrinks(t *testing.T) {
	ty := racy()
	ty.bad = func(s string) bool { return strings.Contains(s, "p1:v0=1") }
	res, err := Search(Options{Delays: Unbounded}, ty.run, independent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.Verified() {
		t.Fatalf("failure not found: %+v", res)
	}
	fails := func(sched []int) bool {
		failed, err := Replay(ty.run, sched)
		return err == nil && failed
	}
	if !fails(res.Schedule) {
		t.Fatalf("schedule %v does not replay to the failure", res.Schedule)
	}
	shrunk := Shrink(res.Schedule, fails)
	if !fails(shrunk) {
		t.Fatalf("shrunk schedule %v no longer fails", shrunk)
	}
	for i := range shrunk {
		trial := append(append([]int(nil), shrunk[:i]...), shrunk[i+1:]...)
		if fails(trial) {
			t.Errorf("shrunk schedule %v not 1-minimal: entry %d removable", shrunk, i)
		}
	}
}

// TestBounds pins the three truncations: a zero delay budget runs only
// the canonical schedule, a schedule budget leaves the search
// incomplete, and MaxBranch caps depth and withholds VERIFIED.
func TestBounds(t *testing.T) {
	res, err := Search(Options{Delays: 0}, racy().run, independent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Schedules != 1 || !res.Verified() {
		t.Errorf("Delays=0: %+v, want one complete schedule", res)
	}

	res, err = Search(Options{Delays: Unbounded, Budget: 3, NoPrune: true}, racy().run, independent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Schedules != 3 || res.Complete || res.Verified() {
		t.Errorf("Budget=3: %+v, want 3 schedules, incomplete", res)
	}

	res, err = Search(Options{Delays: Unbounded, MaxBranch: 2}, racy().run, independent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DepthCapped || res.Verified() || res.Stats.MaxDepth > 2 {
		t.Errorf("MaxBranch=2: %+v, want depth-capped at 2", res)
	}
}

// TestNondeterministicReplayIsAnError: a run whose ready set changes
// between replays breaks the search's contract and must be reported,
// not searched.
func TestNondeterministicReplayIsAnError(t *testing.T) {
	calls := 0
	run := func(choose func([]int) int) (bool, error) {
		calls++
		choose([]int{0, calls})
		return false, nil
	}
	if _, err := Search(Options{Delays: Unbounded}, run, nil); err == nil {
		t.Fatal("changing ready sets went unreported")
	}

	boom := errors.New("boom")
	failing := func(func([]int) int) (bool, error) { return false, boom }
	if _, err := Search(Options{}, failing, nil); !errors.Is(err, boom) {
		t.Fatalf("run error %v not passed up", err)
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	for _, sched := range [][]int{nil, {0}, {2, 0, 1}, {0, 0, 0, 5}} {
		got, err := ParseSchedule(FormatSchedule(sched))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, sched) {
			t.Fatalf("round-trip %v -> %v", sched, got)
		}
	}
	for _, bad := range []string{"1,-2", "a", "1,,2"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", bad)
		}
	}
}

// FuzzShrink drives Shrink over failures of the racy toy system: the
// input schedule (one choice per byte, mod 4) replays to a final state,
// and a run fails when that state shows the read picked by target.
// Whenever the input fails, the shrunk schedule must still fail, be
// the same on a second shrink, and be 1-minimal: removing any one
// entry, or zeroing any nonzero one, no longer fails.
func FuzzShrink(f *testing.F) {
	targets := []string{"p1:v0=1", "p0:v1=3", "p1:v0=0", "p0:v1=0"}
	f.Add([]byte{0, 2, 1, 1}, byte(0))
	f.Add([]byte{1, 2, 0, 3, 0, 0}, byte(1))
	f.Add([]byte{1, 3, 0, 3, 0, 0}, byte(2))
	f.Fuzz(func(t *testing.T, raw []byte, target byte) {
		if len(raw) > 16 {
			t.Skip()
		}
		sched := make([]int, len(raw))
		for i, b := range raw {
			sched[i] = int(b % 4)
		}
		want := targets[int(target)%len(targets)]
		ty := racy()
		ty.bad = func(s string) bool { return strings.Contains(s, want) }
		fails := func(s []int) bool {
			failed, err := Replay(ty.run, s)
			if err != nil {
				t.Fatal(err)
			}
			return failed
		}
		if !fails(sched) {
			t.Skip() // nothing to shrink
		}
		shrunk := Shrink(sched, fails)
		if !fails(shrunk) {
			t.Fatalf("shrunk %v (from %v) no longer fails", shrunk, sched)
		}
		if again := Shrink(sched, fails); !slices.Equal(again, shrunk) {
			t.Fatalf("shrink of %v is not deterministic: %v then %v", sched, shrunk, again)
		}
		for i := range shrunk {
			if trial := slices.Delete(slices.Clone(shrunk), i, i+1); fails(trial) {
				t.Fatalf("shrunk %v not 1-minimal: %v still fails", shrunk, trial)
			}
			if shrunk[i] != 0 {
				trial := slices.Clone(shrunk)
				trial[i] = 0
				if fails(trial) {
					t.Fatalf("shrunk %v not 1-minimal: %v still fails", shrunk, trial)
				}
			}
		}
	})
}
