package harness

import (
	"fmt"
	"sort"

	"repro/internal/table"
)

// DiffOptions tune the regression comparator.
type DiffOptions struct {
	// Threshold is the minimum relative change flagged, e.g. 0.10
	// flags a >10% score drop as a regression (and a >10% gain as an
	// improvement).
	Threshold float64
	// NoiseMult widens the per-cell threshold by the measured run
	// noise: the effective threshold is
	//
	//	max(Threshold, NoiseMult × max(cv_old, cv_new))
	//
	// where cv is a cell's coefficient of variation (stddev/median of
	// its runs). A cell whose own runs scatter by 8% cannot honestly
	// flag a 10% delta at NoiseMult 2; the comparator widens instead
	// of crying wolf.
	NoiseMult float64
}

// DefaultDiffOptions matches the Makefile gate: 12% floor, 3× noise.
func DefaultDiffOptions() DiffOptions { return DiffOptions{Threshold: 0.12, NoiseMult: 3} }

// Delta is one cell's old→new comparison.
type Delta struct {
	Key         string
	Old, New    float64
	Rel         float64 // (New-Old)/Old
	Threshold   float64 // effective, after noise widening
	Regression  bool
	Improvement bool
}

// Report is the outcome of comparing two result files.
type Report struct {
	OldHarness, NewHarness string
	Deltas                 []Delta
	// MissingInNew / AddedInNew list cell keys present on only one
	// side; coverage loss is reported, not silently dropped.
	MissingInNew []string
	AddedInNew   []string
	// EnvWarnings flag environment differences (Go version, chaos
	// arming) that make the comparison suspect.
	EnvWarnings []string
}

// Regressions counts flagged regressions.
func (r *Report) Regressions() int {
	n := 0
	for _, d := range r.Deltas {
		if d.Regression {
			n++
		}
	}
	return n
}

// Improvements counts flagged improvements.
func (r *Report) Improvements() int {
	n := 0
	for _, d := range r.Deltas {
		if d.Improvement {
			n++
		}
	}
	return n
}

// cv returns a cell's coefficient of variation, 0 when unknowable.
func cv(c Cell) float64 {
	if c.Summary == nil || c.Summary.Median <= 0 {
		return 0
	}
	return c.Summary.StdDev / c.Summary.Median
}

// Diff compares two results cell-by-cell (keyed on
// workload|lock|threads). It refuses cross-harness and cross-track
// comparisons — those are different experiments, not a trajectory —
// and comparisons across CPU counts or GOMAXPROCS, where contended
// scores measure a different machine.
func Diff(oldR, newR *Result, opt DiffOptions) (*Report, error) {
	if oldR.Harness != newR.Harness {
		return nil, fmt.Errorf("harness mismatch: %q vs %q", oldR.Harness, newR.Harness)
	}
	if oldR.Track != newR.Track {
		return nil, fmt.Errorf("track mismatch: %q vs %q", oldR.Track, newR.Track)
	}
	if oldR.Env.NumCPU != newR.Env.NumCPU {
		return nil, fmt.Errorf("num_cpu mismatch: %d vs %d", oldR.Env.NumCPU, newR.Env.NumCPU)
	}
	if oldR.Env.GOMAXPROCS != newR.Env.GOMAXPROCS {
		return nil, fmt.Errorf("gomaxprocs mismatch: %d vs %d", oldR.Env.GOMAXPROCS, newR.Env.GOMAXPROCS)
	}
	if opt.Threshold <= 0 {
		opt.Threshold = DefaultDiffOptions().Threshold
	}
	if opt.NoiseMult <= 0 {
		opt.NoiseMult = DefaultDiffOptions().NoiseMult
	}
	rep := &Report{OldHarness: oldR.Harness, NewHarness: newR.Harness}
	rep.EnvWarnings = envWarnings(oldR.Env, newR.Env)

	oldCells := map[string]Cell{}
	for _, c := range oldR.Cells {
		oldCells[c.Key()] = c
	}
	seen := map[string]bool{}
	for _, nc := range newR.Cells {
		key := nc.Key()
		seen[key] = true
		oc, ok := oldCells[key]
		if !ok {
			rep.AddedInNew = append(rep.AddedInNew, key)
			continue
		}
		d := Delta{Key: key, Old: oc.Score, New: nc.Score}
		d.Threshold = opt.Threshold
		if noise := opt.NoiseMult * maxF(cv(oc), cv(nc)); noise > d.Threshold {
			d.Threshold = noise
		}
		if oc.Score > 0 {
			d.Rel = (nc.Score - oc.Score) / oc.Score
			d.Regression = d.Rel < -d.Threshold
			d.Improvement = d.Rel > d.Threshold
		} else if nc.Score > 0 {
			// A cell resurrected from zero is an improvement by fiat.
			d.Improvement = true
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for key := range oldCells {
		if !seen[key] {
			rep.MissingInNew = append(rep.MissingInNew, key)
		}
	}
	sort.Strings(rep.MissingInNew)
	sort.Strings(rep.AddedInNew)
	return rep, nil
}

func envWarnings(a, b Env) []string {
	var w []string
	if a.GoVersion != b.GoVersion {
		w = append(w, fmt.Sprintf("Go version %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.Chaos != b.Chaos {
		w = append(w, fmt.Sprintf("chaos arming %v vs %v — chaotic and clean results are never comparable", a.Chaos, b.Chaos))
	}
	return w
}

// Table renders the comparison, worst regression first.
func (r *Report) Table(title string) *table.Table {
	t := table.New(title, "Cell", "Old", "New", "Δ%", "Gate%", "Verdict")
	deltas := append([]Delta(nil), r.Deltas...)
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Rel < deltas[j].Rel })
	for _, d := range deltas {
		verdict := "ok"
		if d.Regression {
			verdict = "REGRESSION"
		} else if d.Improvement {
			verdict = "improved"
		}
		t.Add(d.Key, table.F(d.Old, 3), table.F(d.New, 3),
			table.F(d.Rel*100, 1), table.F(d.Threshold*100, 1), verdict)
	}
	return t
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
