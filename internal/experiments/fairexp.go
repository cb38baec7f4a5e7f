package experiments

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/coherence"
	"repro/internal/harness"
	"repro/internal/llcmodel"
	"repro/internal/simlocks"
	"repro/internal/stats"
	"repro/internal/table"
)

// simSet is the lock set shared by the simulator fairness
// experiments: named baselines plus every fairness-mitigation variant.
func simSet(names ...string) []simlocks.Factory {
	var set []simlocks.Factory
	for _, n := range names {
		set = append(set, simlocks.ByName(n))
	}
	return append(set, simlocks.FairnessVariants()...)
}

// LongTermFairnessSim measures §9.2's long-term admission unfairness
// on the simulator — per-thread admission counts over a long
// deterministic run of the Reciprocating lock, whose palindromic
// cycles favor interior threads by up to 2×, versus FIFO locks. Jain
// is higher for fairer locks.
func LongTermFairnessSim(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 5
	}
	if episodes <= 0 {
		episodes = 400
	}
	t := table.New(
		fmt.Sprintf("§9.2/§9.4 — long-term admission fairness over %d episodes/thread (simulator)", episodes),
		"Lock", "Jain", "Max/Min", "Palindromic cycle", "MaxBypass")
	for _, mk := range simSet("Recipro", "Chen", "TKT", "MCS", "CLH") {
		out := simlocks.Run(mk, simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Mode:     coherence.RoundRobin,
			Seed:     1,
		})
		steady := middleWindow(out.AdmissionSchedule)
		f := admission.Fairness(steady, threads)
		pal := "none"
		if cyc, ok := admission.FindCycle(steady, 4); ok {
			pal = fmt.Sprintf("period %d, palindromic=%v", len(cyc), admission.IsPalindromic(cyc))
		}
		t.Add(out.Lock, table.F(harness.Finite(f.Jain), 4), table.F(harness.Finite(f.Disparity), 2), pal,
			table.I(int64(admission.MaxBypass(steady, threads))))
	}
	return t
}

// LLCResidency reproduces Appendix C: the exponential-decay residual
// cache residency model evaluated over FIFO, true-palindrome,
// reciprocating-cycle and random admission schedules, across decay
// half-lives. Palindromic order must dominate FIFO in aggregate
// residual (Jensen's inequality) while introducing per-thread
// residency disparity.
func LLCResidency(n int) *table.Table {
	if n <= 0 {
		n = 5
	}
	schedules := []struct {
		name string
		s    []int
	}{
		{"FIFO", admission.FIFOSchedule(n, 1)},
		{"Palindrome", admission.PalindromeSchedule(n, 1)},
		{"ReciproCycle", admission.ReciprocatingCycleSchedule(n, 1)},
		{"Random", admission.RandomSchedule(n, 20000, 7)},
	}
	t := table.New(
		fmt.Sprintf("Appendix C — residual LLC residency model (%d threads)", n),
		"Schedule", "HalfLife", "AggResidual", "MissRate", "ResidencyMax/Min")
	for _, hl := range []float64{1, 2, 4, 8} {
		lambda := llcmodel.LambdaFromHalfLife(hl)
		for _, sc := range schedules {
			rep := llcmodel.Evaluate(sc.s, n, lambda)
			t.Add(sc.name, table.F(hl, 0), table.F(harness.Finite(rep.Aggregate), 4),
				table.F(harness.Finite(rep.MissRate), 4), table.F(harness.Finite(rep.ResidencyDisparity()), 3))
		}
	}
	return t
}

// AcquireLatencyDistribution measures per-acquisition wait-latency
// percentiles on the timed simulator. Two paper claims are visible
// here: FIFO locks (TKT/MCS/CLH) produce tight, uniform waits, while
// Reciprocating's LIFO-within-segment admission yields the "bimodal
// distribution of progress" of §9.2 — a cheap fast mode (recently
// arrived threads admitted quickly off the stack top) paired with a
// long tail bounded by the bypass guarantee, and the mitigations pull
// the modes back together. The p90/p10 spread prints as Inf when p10
// is zero.
func AcquireLatencyDistribution(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 16
	}
	if episodes <= 0 {
		episodes = 300
	}
	t := table.New(
		fmt.Sprintf("§9.2 — acquisition-latency distribution, %d threads (timed simulator, cycles)", threads),
		"Lock", "p10", "p50", "p90", "p99", "max", "p90/p10")
	cycles := func(x float64) string { return table.F(harness.Finite(x), 0) }
	for _, mk := range simSet("TKT", "MCS", "CLH", "Recipro") {
		out := simlocks.Run(mk, simlocks.Config{
			Threads:        threads,
			Episodes:       episodes,
			Warmup:         episodes / 5,
			Mode:           coherence.Timed,
			CSWork:         10,
			CollectLatency: true,
			Seed:           1,
		})
		ls := out.AcquireLatencies
		p10 := stats.Percentile(ls, 10)
		p90 := stats.Percentile(ls, 90)
		spread := "Inf"
		if p10 > 0 {
			spread = table.F(p90/p10, 2)
		}
		t.Add(out.Lock, cycles(p10), cycles(stats.Percentile(ls, 50)), cycles(p90),
			cycles(stats.Percentile(ls, 99)), cycles(stats.Max(ls)), spread)
	}
	return t
}

// FairnessThroughputTradeoff sweeps the §9.4 deferral probability,
// measuring modeled throughput (timed simulator) against steady-state
// admission disparity — Appendix G's "we use the tunable Bernoulli
// probability to strike a balance between fairness over a period and
// aggregate throughput" rendered as a curve.
//
// A finding worth calling out: the endpoint p=256 (defer always) is
// deterministic again, so the schedule can re-enter a periodic unfair
// cycle — randomness, not deferral per se, is what restores fairness.
// That is precisely why the paper prescribes a *Bernoulli trial*.
func FairnessThroughputTradeoff(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 8
	}
	if episodes <= 0 {
		episodes = 300
	}
	t := table.New("§9.4/Appendix G — fairness vs throughput across deferral probability (simulator)",
		"DeferProb", "Throughput(eps/kcycle)", "Disparity", "Jain")
	for _, p := range []int{-1, 16, 64, 128, 256} { // -1 = plain Listing 1
		var mk simlocks.Factory
		label := fmt.Sprintf("%d/256", p)
		if p < 0 {
			mk = simlocks.ByName("Recipro")
			label = "0 (plain)"
		} else {
			pp := p
			mk = func() simlocks.Lock { return &simlocks.ReciproFair{Prob: pp} }
		}
		// Throughput in timed mode.
		tp := simlocks.Run(mk, simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Mode:     coherence.Timed,
			CSWork:   10,
			Seed:     1,
		}).Throughput
		// Fairness on the deterministic round-robin schedule.
		out := simlocks.Run(mk, simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Mode:     coherence.RoundRobin,
			Seed:     1,
		})
		f := admission.Fairness(middleWindow(out.AdmissionSchedule), threads)
		t.Add(label, table.F(harness.Finite(tp), 3), table.F(harness.Finite(f.Disparity), 3),
			table.F(harness.Finite(f.Jain), 4))
	}
	return t
}

// RetrogradeEquivalence verifies Appendix G's claim that the
// retrograde ticket lock mimics Reciprocating admission: both produce
// LIFO-within-segment schedules with identical per-cycle disparity
// and bypass bounds. (The retrograde lock is a Track A lock; here we
// compare the reciprocating simulator schedule against the analytic
// reciprocating cycle.)
func RetrogradeEquivalence(threads int) *table.Table {
	if threads <= 0 {
		threads = 5
	}
	out := simlocks.Run(simlocks.ByName("Recipro"), simlocks.Config{
		Threads:  threads,
		Episodes: 200,
		Mode:     coherence.RoundRobin,
		Seed:     1,
	})
	t := table.New("Appendix G — retrograde/reciprocating admission equivalence",
		"Schedule", "CyclePeriod", "Disparity", "MaxBypass", "Palindromic")
	add := func(name string, sched []int) {
		period, pal := "-", "-"
		if cyc, ok := admission.FindCycle(sched, 4); ok {
			period = table.I(int64(len(cyc)))
			pal = fmt.Sprintf("%v", admission.IsPalindromic(cyc))
		}
		f := admission.Fairness(sched, threads)
		t.Add(name, period, table.F(harness.Finite(f.Disparity), 2),
			table.I(int64(admission.MaxBypass(sched, threads))), pal)
	}
	add("Reciprocating (simulated)", middleWindow(out.AdmissionSchedule))
	add("Retrograde cycle (analytic)", admission.ReciprocatingCycleSchedule(threads, 50))
	return t
}
