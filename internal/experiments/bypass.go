package experiments

import (
	"runtime"
	"sync"

	"repro/internal/admission"
	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/table"
)

// recordAdmissions runs workers goroutines over one lock, each
// performing iters acquisitions, recording the admission order inside
// the critical section (which makes the recording itself safe).
// An occasional in-CS yield builds real queues on small GOMAXPROCS.
func recordAdmissions(l sync.Locker, workers, iters int) []int {
	schedule := make([]int, 0, workers*iters)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				schedule = append(schedule, w)
				if i%4 == 0 {
					runtime.Gosched()
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	return schedule
}

// BypassBound measures §2's bounded-bypass property empirically on
// real goroutines: the maximum number of times any single competitor
// was admitted between two consecutive admissions of a waiting
// thread. Reciprocating Locks guarantee at most 2 (once ahead on the
// current segment, once via the next segment); FIFO locks show 1; the
// futex mutex (the real-world pthread default §5 describes) admits
// barging and can exhibit much larger — in principle unbounded —
// bypass.
//
// The table is informational, not a check of the guarantee. It reads
// only the admission order, so a worker still outside the lock (in its
// non-critical section, or never scheduled) counts as bypassed: on a
// multi-core host even strict-FIFO locks show bypass above 1. The
// guarantee is gated where arrivals are observed: the conformance
// differential checker measures bypass against doorway-stamped
// arrivals, and the simulator's Table 2 check counts it exactly.
func BypassBound(workers, iters int) *table.Table {
	res := BypassBoundResult(workers, iters)
	t := table.New("§2/§5 — empirical bypass bound (Track A)",
		"Lock", "MaxBypass", "Guarantee")
	for _, c := range res.Cells {
		t.Add(c.Lock, table.I(int64(c.Extras["max_bypass"])), c.Notes["guarantee"])
	}
	return t
}

// BypassBoundResult is BypassBound in the versioned result schema:
// informational cells whose "max_bypass" extra carries the observed
// bound and whose notes restate the algorithmic guarantee.
func BypassBoundResult(workers, iters int) *harness.Result {
	if workers <= 0 {
		workers = 6
	}
	if iters <= 0 {
		iters = 4000
	}
	set := []struct {
		name      string
		guarantee string
	}{
		{"Recipro", "<=2 (population-bounded)"},
		{"Recipro-L4", "<=2 (population-bounded)"},
		{"Fair", "<=2 (intra-segment reorder only)"},
		{"TwoLane", "<=2 per lane"},
		{"Chen", "<=2 (same segments)"},
		{"TKT", "1 (strict FIFO)"},
		{"MCS", "1 (strict FIFO)"},
		{"CLH", "1 (strict FIFO)"},
		{"FutexMutex", "unbounded (barging)"},
		{"TAS", "unbounded (barging)"},
	}
	res := harness.NewResult("fairness", "A", 0)
	for _, entry := range set {
		lf, ok := registry.Lookup(entry.name)
		if !ok {
			continue
		}
		sched := recordAdmissions(lf.New(nil), workers, iters)
		res.Add(harness.Cell{
			Lock: entry.name, Workload: "bypass", Threads: workers,
			Extras: map[string]float64{
				"max_bypass": float64(admission.MaxBypass(sched, workers)),
			},
			Notes: map[string]string{"guarantee": entry.guarantee},
		})
	}
	return res
}
