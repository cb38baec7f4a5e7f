package experiments

import (
	"fmt"
	"sort"

	"repro/internal/admission"
	"repro/internal/coherence"
	"repro/internal/harness"
	"repro/internal/simlocks"
	"repro/internal/table"
)

// Table1Invalidations reproduces Table 1's "Invalidations per episode"
// column on the coherence simulator: sustained contention, degenerate
// (local-only) critical section, context passed outside shared memory
// — the paper's exact methodology for the l2d_cache_inval measurement.
// threads defaults to the paper's 10.
func Table1Invalidations(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 10
	}
	if episodes <= 0 {
		episodes = 500
	}
	t := table.New(
		fmt.Sprintf("Table 1 — coherence events per episode (%d threads, MESI simulator)", threads),
		"Lock", "Events/episode", "Expected")
	expect := map[string]string{
		"TKT": "≈T (global spinning)", "ABQL": "const", "TWA": "const",
		"MCS": "const", "CLH": "5 (§8 tally)", "HemLock": "const",
		"Chen": "≈T (global spinning)", "Recipro": "4 (§8 tally)",
	}
	for _, mk := range simlocks.All() {
		out := simlocks.Run(mk, simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Warmup:   episodes / 5,
			Mode:     coherence.RoundRobin,
			CSWork:   5,
			Seed:     1,
		})
		t.Add(out.Lock, table.F(out.EventsPerEpisode, 2), expect[out.Lock])
	}
	return t
}

// Table1RemoteMisses reproduces Table 1's "Maximum Remote Misses"
// column: the same sustained-contention run on a 2-node NUMA home map.
// Reciprocating's waiter lines are homed with their threads, so its
// remote misses stay low; CLH's circulating nodes pick up remote
// misses (§8 point A).
func Table1RemoteMisses(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 8
	}
	if episodes <= 0 {
		episodes = 500
	}
	t := table.New(
		fmt.Sprintf("Table 1 — remote misses per episode (%d threads, 2 NUMA nodes)", threads),
		"Lock", "RemoteMisses/episode")
	for _, mk := range simlocks.All() {
		out := simlocks.Run(mk, simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Warmup:   episodes / 5,
			Mode:     coherence.RoundRobin,
			CSWork:   5,
			NodeCPUs: threads / 2,
			Seed:     1,
		})
		t.Add(out.Lock, table.F(out.RemotePerEpisode, 2))
	}
	return t
}

// Arch selects the modeled machine for Figure 1 simulations.
type Arch struct {
	Name     string
	NodeCPUs int // CPUs per NUMA node
	MaxCPUs  int
	Costs    coherence.CostModel
}

// ArchIntel models the paper's 2-socket 18-core Intel X5-2 (§7):
// threads spill onto the second socket above 18, where the UPI
// home-snooping fabric makes remote misses expensive.
var ArchIntel = Arch{
	Name:     "intel",
	NodeCPUs: 18,
	MaxCPUs:  64,
	Costs:    coherence.CostModel{Hit: 1, Miss: 40, RemoteMiss: 90, Upgrade: 34, BusOccupancy: 16},
}

// ArchARM models the Ampere Altra Max (§7.1): 128 cores, one socket,
// a flatter mesh (uniform miss costs, slightly cheaper bus).
var ArchARM = Arch{
	Name:     "arm",
	NodeCPUs: 0, // single node
	MaxCPUs:  128,
	Costs:    coherence.CostModel{Hit: 1, Miss: 36, RemoteMiss: 36, Upgrade: 30, BusOccupancy: 12},
}

// Fig1Threads is the default sweep used for the Figure 1 curves.
func Fig1Threads(a Arch) []int {
	base := []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}
	if a.MaxCPUs >= 128 {
		base = append(base, 96, 128)
	}
	out := base[:0]
	for _, t := range base {
		if t <= a.MaxCPUs {
			out = append(out, t)
		}
	}
	return out
}

// Fig1Sim reproduces Figures 1a–1d on the simulator: aggregate
// modeled throughput (episodes per kilocycle) per lock across a thread
// sweep, one row per lock and one column per thread count.
// moderate=false is maximal contention (empty non-critical section,
// Figures 1a/1c); moderate=true draws non-critical work uniformly, the
// Figures 1b/1d configuration.
func Fig1Sim(a Arch, moderate bool, episodes int) *table.Table {
	if episodes <= 0 {
		episodes = 200
	}
	label := "max contention"
	var ncs uint64
	if moderate {
		label = "moderate contention"
		ncs = 1000
	}
	threads := Fig1Threads(a)
	t := table.New(fmt.Sprintf("Figure 1 (%s, %s) — modeled throughput, episodes/kcycle", a.Name, label),
		threadHeaders(threads)...)
	for _, mk := range simlocks.All() {
		row := []string{mk().Name()}
		for _, tc := range threads {
			out := simlocks.Run(mk, simlocks.Config{
				Threads:    tc,
				Episodes:   episodes,
				Mode:       coherence.Timed,
				Costs:      a.Costs,
				CSShared:   true,
				CSWork:     10,
				NCSMaxWork: ncs,
				NodeCPUs:   a.NodeCPUs,
				Seed:       1,
			})
			row = append(row, table.F(harness.Finite(out.Throughput), 3))
		}
		t.Add(row...)
	}
	return t
}

// middleWindow drops the first and last quarter of a schedule,
// leaving the steady-state region.
func middleWindow(s []int) []int {
	if len(s) < 8 {
		return s
	}
	return s[len(s)/4 : len(s)*3/4]
}

// Section8Tally reproduces §8's itemized miss tallies: which access
// site of each algorithm pays which coherence event in an idealized
// contended acquire/release episode. The paper derives CLH = 5 (the
// node-prepare store, the exchange, the first and last waiting loads,
// and the release store) and Reciprocating = 4 (the Gate re-arm
// upgrade, the exchange, the wake load, and the grant store); the
// per-line breakdown shows exactly those sites.
func Section8Tally(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 10
	}
	if episodes <= 0 {
		episodes = 500
	}
	t := table.New("§8 — per-access-site coherence events per episode (simulator)",
		"Lock", "Line", "LoadMiss", "StoreMiss", "Upgrade", "Events/episode")
	for _, name := range []string{"CLH", "Recipro"} {
		out := simlocks.Run(simlocks.ByName(name), simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Warmup:   0, // whole-run attribution; onset is negligible
			Mode:     coherence.RoundRobin,
			CSWork:   5,
			Seed:     1,
		})
		n := float64(out.TotalEpisodes)
		labels := make([]string, 0, len(out.LineBreakdown))
		for l := range out.LineBreakdown {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			ls := out.LineBreakdown[l]
			if ls.Events() == 0 {
				continue
			}
			t.Add(name, l,
				table.F(float64(ls.LoadMisses)/n, 2),
				table.F(float64(ls.StoreMisses)/n, 2),
				table.F(float64(ls.Upgrades)/n, 2),
				table.F(float64(ls.Events())/n, 2))
		}
	}
	return t
}

// SegmentScaling verifies §8's "Handoff costs" observation: as the
// number of contending threads grows, Reciprocating's segments get
// longer, so the central arrival word is consulted (detached) less and
// less often — measured directly by counting detach operations per
// episode. Under sustained round-robin contention the mean segment
// length comes out at T/2 and the total coherence cost per episode
// stays pinned at 4 regardless.
func SegmentScaling(episodes int) *table.Table {
	if episodes <= 0 {
		episodes = 400
	}
	t := table.New("§8 — segment length and central-word traffic vs thread count (Reciprocating, simulator)",
		"Threads", "Detaches/episode", "MeanSegmentLength", "Events/episode")
	for _, threads := range []int{2, 4, 8, 16, 32} {
		out := simlocks.Run(simlocks.ByName("Recipro"), simlocks.Config{
			Threads:  threads,
			Episodes: episodes,
			Mode:     coherence.RoundRobin,
			CSWork:   5,
			Seed:     1,
		})
		n := float64(out.TotalEpisodes)
		det := float64(out.Instance.(*simlocks.Recipro).Detaches())
		seg := "∞"
		if det > 0 {
			seg = table.F(n/det, 1)
		}
		t.Add(table.I(int64(threads)), table.F(det/n, 4), seg,
			table.F(out.EventsPerEpisode, 3))
	}
	return t
}

// PaddingAblationSim quantifies the paper's 128-byte sequestration on
// the simulator: the same locks run with every hot word on its own
// line (the paper's alignment discipline) versus packed four words to
// a line (lock words and wait elements false-sharing with their
// neighbors). Events per episode inflate when hot words share lines.
func PaddingAblationSim(threads, episodes int) *table.Table {
	if threads <= 0 {
		threads = 8
	}
	if episodes <= 0 {
		episodes = 300
	}
	t := table.New("Padding ablation — coherence events/episode, sequestered vs packed (simulator)",
		"Lock", "Sequestered(128B)", "Packed(4/line)", "Inflation")
	for _, name := range []string{"TKT", "MCS", "CLH", "Recipro"} {
		run := func(wpl int) float64 {
			out := simlocks.Run(simlocks.ByName(name), simlocks.Config{
				Threads:      threads,
				Episodes:     episodes,
				Warmup:       episodes / 5,
				Mode:         coherence.RoundRobin,
				CSWork:       5,
				WordsPerLine: wpl,
				Seed:         1,
			})
			return out.EventsPerEpisode
		}
		seq := run(1)
		packed := run(4)
		t.Add(name, table.F(seq, 2), table.F(packed, 2), table.F(packed/seq, 2)+"x")
	}
	return t
}

// Table2Result carries the §9.1 palindromic-schedule reproduction.
type Table2Result struct {
	Schedule    []int
	Cycle       []int
	Palindromic bool
	Disparity   float64
	MaxBypass   int
}

// Table2 reproduces §9.1 / Table 2: five threads recirculating over a
// Reciprocating lock with empty critical and non-critical sections
// under a deterministic scheduler settle into a palindromic admission
// cycle with per-cycle admission disparity 2 and bypass bound 2.
func Table2(threads, episodes int) (Table2Result, *table.Table) {
	if threads <= 0 {
		threads = 5
	}
	if episodes <= 0 {
		episodes = 200
	}
	out := simlocks.Run(simlocks.ByName("Recipro"), simlocks.Config{
		Threads:  threads,
		Episodes: episodes,
		Mode:     coherence.RoundRobin,
		Seed:     1,
	})
	// Threads complete fixed episode counts, so the raw schedule has
	// an onset transient at the front and a drain phase (fewer live
	// threads) at the back; the steady-state cycle lives in the
	// middle window.
	steady := middleWindow(out.AdmissionSchedule)
	res := Table2Result{Schedule: out.AdmissionSchedule}
	if cyc, ok := admission.FindCycle(steady, 4); ok {
		res.Cycle = cyc
		res.Palindromic = admission.IsPalindromic(cyc)
		res.Disparity = admission.CycleDisparity(cyc, threads)
	}
	res.MaxBypass = admission.MaxBypass(steady, threads)

	t := table.New("Table 2 — palindromic admission schedule (Reciprocating, simulator)",
		"Metric", "Value", "Paper")
	t.Add("threads", table.I(int64(threads)), "5 (A..E)")
	t.Add("cycle detected", fmt.Sprintf("%v", res.Cycle != nil), "yes")
	t.Add("cycle", fmt.Sprintf("%v", res.Cycle), "A B C D E D C B")
	t.Add("cycle period", table.I(int64(len(res.Cycle))), "8 (=2N-2)")
	t.Add("palindromic", fmt.Sprintf("%v", res.Palindromic), "yes")
	t.Add("per-cycle admission disparity", table.F(res.Disparity, 2), "2.00 (§9.2 bound)")
	t.Add("max bypass observed", table.I(int64(res.MaxBypass)), "<=2 (bounded bypass)")
	return res, t
}
