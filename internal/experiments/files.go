package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/table"
)

// Budget sizes the Track A measurements. Track B files ignore it: a
// simulator or model run is fixed by its seed and episode counts.
type Budget struct {
	Dur   time.Duration // measurement interval per configuration
	Runs  int           // independent runs per configuration
	Keys  int           // Figure 3 keyspace
	Iters int           // uncontended-latency iterations per lock
}

// FullBudget sizes the committed Track A files; QuickBudget is a fast
// smoke pass over the same tables.
var (
	FullBudget  = Budget{Dur: 300 * time.Millisecond, Runs: 3, Keys: 50_000, Iters: 2_000_000}
	QuickBudget = Budget{Dur: 20 * time.Millisecond, Runs: 1, Keys: 5_000, Iters: 50_000}
)

// A File is one committed results file, results/<Stem>.txt: a note
// followed by its tables, separated by blank lines. A file holds one
// track: "A" for real goroutine execution on the host, "B" for the
// deterministic simulator and models, whose bytes do not depend on
// the host.
type File struct {
	Stem   string
	Track  string
	Note   string
	Tables func(Budget) []*table.Table
}

// Name is the file's name under results/.
func (f File) Name() string { return f.Stem + ".txt" }

// Render builds the file's bytes.
func (f File) Render(b Budget) []byte {
	var buf bytes.Buffer
	if f.Note != "" {
		fmt.Fprintf(&buf, "%s\n\n", f.Note)
	}
	for i, t := range f.Tables(b) {
		if i > 0 {
			buf.WriteByte('\n')
		}
		t.Render(&buf)
	}
	return buf.Bytes()
}

// Files lists every results file in the order cmd/figures writes
// them.
var Files = []File{
	// Table 1: static properties + simulated dynamic columns.
	{"table1", "B", Table1Notes, func(Budget) []*table.Table {
		return []*table.Table{Table1Properties(), Table1Invalidations(0, 0), Table1RemoteMisses(0, 0)}
	}},
	// Figure 1: simulator shape curves (both architectures, both
	// contention levels) plus the real-execution sweep.
	{"fig1_sim_intel", "B", "", func(Budget) []*table.Table {
		return []*table.Table{Fig1Sim(ArchIntel, false, 0), Fig1Sim(ArchIntel, true, 0)}
	}},
	{"fig1_sim_arm", "B", "", func(Budget) []*table.Table {
		return []*table.Table{Fig1Sim(ArchARM, false, 0), Fig1Sim(ArchARM, true, 0)}
	}},
	{"fig1_real", "A", TrackANote, func(b Budget) []*table.Table {
		return []*table.Table{Fig1Real(false, b.Dur, b.Runs), Fig1Real(true, b.Dur, b.Runs)}
	}},
	// Figure 2: lock-striped atomic struct.
	{"fig2", "A", TrackANote, func(b Budget) []*table.Table {
		return []*table.Table{Fig2(false, b.Dur, b.Runs), Fig2(true, b.Dur, b.Runs)}
	}},
	// Figure 3: KV readrandom.
	{"fig3", "A", TrackANote, func(b Budget) []*table.Table {
		return []*table.Table{Fig3(b.Dur, b.Keys, b.Runs)}
	}},
	// Table 2, §9 fairness, Appendix C and Appendix G.
	{"table2", "B", "", func(Budget) []*table.Table {
		_, t := Table2(0, 0)
		return []*table.Table{t}
	}},
	{"fairness", "B", "", func(Budget) []*table.Table {
		return []*table.Table{LongTermFairnessSim(0, 0)}
	}},
	{"mitigation", "A", TrackANote, func(b Budget) []*table.Table {
		return []*table.Table{MitigationFairness(b.Dur)}
	}},
	{"llc_model", "B", "", func(Budget) []*table.Table { return []*table.Table{LLCResidency(0)} }},
	{"latency", "B", "", func(Budget) []*table.Table { return []*table.Table{AcquireLatencyDistribution(0, 0)} }},
	{"padding", "B", "", func(Budget) []*table.Table { return []*table.Table{PaddingAblationSim(0, 0)} }},
	{"section8_tally", "B", "", func(Budget) []*table.Table { return []*table.Table{Section8Tally(0, 0)} }},
	{"tradeoff", "B", "", func(Budget) []*table.Table { return []*table.Table{FairnessThroughputTradeoff(0, 0)} }},
	{"segments", "B", "", func(Budget) []*table.Table { return []*table.Table{SegmentScaling(0)} }},
	{"retrograde", "B", "", func(Budget) []*table.Table { return []*table.Table{RetrogradeEquivalence(0)} }},
	// Uncontended latency (Figure 1 at T=1).
	{"uncontended", "A", TrackANote, func(b Budget) []*table.Table {
		return []*table.Table{UncontendedLatency(b.Iters)}
	}},
}
