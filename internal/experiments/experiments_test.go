package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTable1PropertiesComplete(t *testing.T) {
	tab := Table1Properties()
	if len(tab.Rows) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(tab.Rows))
	}
	s := tab.String()
	for _, lock := range []string{"TKT", "ABQL", "TWA", "MCS", "CLH", "HemLock", "Chen", "Recipro"} {
		if !strings.Contains(s, lock) {
			t.Fatalf("Table 1 missing %s", lock)
		}
	}
}

func TestTable1InvalidationsRendered(t *testing.T) {
	tab := Table1Invalidations(6, 100)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "Recipro") {
		t.Fatal("missing Recipro row")
	}
}

func TestTable2Reproduction(t *testing.T) {
	res, tab := Table2(5, 150)
	if res.Cycle == nil {
		t.Fatal("no admission cycle found")
	}
	if len(res.Cycle) != 8 {
		t.Fatalf("cycle period %d, want 8 (=2N-2 for N=5): %v", len(res.Cycle), res.Cycle)
	}
	if !res.Palindromic {
		t.Fatalf("cycle %v not palindromic", res.Cycle)
	}
	if res.Disparity != 2 {
		t.Fatalf("cycle disparity %v, want exactly 2 (§9.2)", res.Disparity)
	}
	if res.MaxBypass > 2 {
		t.Fatalf("bypass bound violated: %d > 2", res.MaxBypass)
	}
	if tab.String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig1SimProducesAllSeries(t *testing.T) {
	tab := Fig1Sim(ArchIntel, false, 40)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 locks", len(tab.Rows))
	}
	if len(tab.Headers) != len(Fig1Threads(ArchIntel))+1 {
		t.Fatalf("headers = %d", len(tab.Headers))
	}
}

func TestArchSelection(t *testing.T) {
	if ArchIntel.Name != "intel" || ArchARM.Name != "arm" {
		t.Fatalf("arch names %q, %q", ArchIntel.Name, ArchARM.Name)
	}
	if ts := Fig1Threads(ArchARM); ts[len(ts)-1] != 128 {
		t.Fatalf("ARM sweep should reach 128, got %v", ts)
	}
}

func TestLongTermFairnessSim(t *testing.T) {
	tab := LongTermFairnessSim(5, 120)
	if len(tab.Rows) != 7 { // 5 baselines + 2 simulated mitigations
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
}

func TestLLCResidencyTable(t *testing.T) {
	tab := LLCResidency(5)
	if len(tab.Rows) != 16 { // 4 schedules × 4 half-lives
		t.Fatalf("rows = %d, want 16", len(tab.Rows))
	}
}

func TestAcquireLatencyDistribution(t *testing.T) {
	tab := AcquireLatencyDistribution(8, 100)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	// All percentiles must be present and positive for contended
	// waits.
	for _, row := range tab.Rows {
		if row[2] == "0" {
			t.Fatalf("lock %s has zero p50 wait under contention", row[0])
		}
	}
}

func TestRetrogradeEquivalence(t *testing.T) {
	tab := RetrogradeEquivalence(5)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// Track A smoke tests: tiny durations, just verifying the harnesses
// produce complete tables.
func TestFig2Smoke(t *testing.T) {
	tab := Fig2(true, 3*time.Millisecond, 1)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig3Smoke(t *testing.T) {
	tab := Fig3(3*time.Millisecond, 2000, 1)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestUncontendedLatencySmoke(t *testing.T) {
	tab := UncontendedLatency(20_000)
	if len(tab.Rows) < 15 {
		t.Fatalf("rows = %d, want every registered lock", len(tab.Rows))
	}
}

// The padding ablation must show sequestration reducing coherence
// events for every lock.
func TestPaddingAblationSim(t *testing.T) {
	tab := PaddingAblationSim(6, 150)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var seq, packed float64
		fmt.Sscan(row[1], &seq)
		fmt.Sscan(row[2], &packed)
		if packed < seq {
			t.Errorf("%s: packed (%v) should not beat sequestered (%v)", row[0], packed, seq)
		}
	}
}

// §8's per-site tally: the breakdown must localize each lock's events
// to the expected lines and sum to the Table 1 totals.
func TestSection8TallyBreakdown(t *testing.T) {
	tab := Section8Tally(10, 300)
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	sum := map[string]float64{}
	for _, row := range tab.Rows {
		var ev float64
		fmt.Sscan(row[5], &ev)
		sum[row[0]] += ev
	}
	if sum["Recipro"] < 3.5 || sum["Recipro"] > 4.5 {
		t.Errorf("Recipro per-site events sum to %.2f, want ≈4", sum["Recipro"])
	}
	if sum["CLH"] < 4.5 || sum["CLH"] > 5.5 {
		t.Errorf("CLH per-site events sum to %.2f, want ≈5", sum["CLH"])
	}
}

// The fairness/throughput tradeoff: disparity must fall monotonically
// toward 1 as the deferral probability rises.
func TestFairnessThroughputTradeoff(t *testing.T) {
	tab := FairnessThroughputTradeoff(6, 200)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var plain float64
	fmt.Sscan(tab.Rows[0][2], &plain)
	// Randomized settings (16..128/256) must beat the plain lock;
	// note p=256 (always defer) is deterministic again and may
	// re-enter a periodic unfair cycle — the reason the paper
	// specifies a *Bernoulli trial*, not unconditional deferral.
	best := plain
	for _, row := range tab.Rows[1:4] {
		var d float64
		fmt.Sscan(row[2], &d)
		if d < best {
			best = d
		}
	}
	if !(best < plain) {
		t.Errorf("no randomized deferral setting improved on plain disparity %.3f", plain)
	}
}

// §8's segment-scaling claim: release-path traffic on the arrival word
// must decline as threads grow.
func TestSegmentScalingDecline(t *testing.T) {
	tab := SegmentScaling(200)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var first, last float64
	fmt.Sscan(tab.Rows[0][1], &first)
	fmt.Sscan(tab.Rows[len(tab.Rows)-1][1], &last)
	if !(last < first) {
		t.Errorf("detach rate did not decline: T=2 %.4f vs T=32 %.4f", first, last)
	}
}
