package lockstat

import (
	"fmt"
	"io"

	"repro/internal/table"
	"repro/internal/waiter"
)

// InstallWaiterSink routes waiting-policy transitions (spin/yield/
// park) to s and returns a restore function reinstating the previous
// sink. Install around the measurement window of one lock for exact
// attribution; a nil s uninstalls.
func InstallWaiterSink(s *Stats) (restore func()) {
	prev := waiter.ActiveSink()
	if s == nil {
		waiter.SetSink(nil)
	} else {
		waiter.SetSink(s)
	}
	return func() { waiter.SetSink(prev) }
}

// BuildTable renders named snapshots as a telemetry table, one row per
// lock in the order given. Latency columns are bucket-midpoint
// estimates from the log₂ histograms.
func BuildTable(title string, names []string, snaps map[string]Snapshot) *table.Table {
	t := table.New(title,
		"Lock", "Acquire", "Contended", "Cont%", "Handover", "Abandon",
		"Spin", "Yield", "Park",
		"RLock", "OptRead", "OptRetry",
		"AcqP50", "AcqP99", "HoldP50", "HoldP99", "ReadP50", "ReadP99")
	for _, name := range names {
		s, ok := snaps[name]
		if !ok {
			continue
		}
		t.Add(name,
			table.U(s.Acquisitions),
			table.U(s.Contended),
			table.F(100*s.ContendedFraction(), 1),
			table.U(s.Handovers),
			table.U(s.Abandons),
			table.U(s.Spins),
			table.U(s.Yields),
			table.U(s.Parks),
			table.U(s.RLocks),
			table.U(s.OptReads),
			table.U(s.OptRetries),
			s.Acquire.Quantile(0.50).String(),
			s.Acquire.Quantile(0.99).String(),
			s.Hold.Quantile(0.50).String(),
			s.Hold.Quantile(0.99).String(),
			s.ReadAcq.Quantile(0.50).String(),
			s.ReadAcq.Quantile(0.99).String(),
		)
	}
	return t
}

// FprintReport writes the standard -lockstat report: the summary
// table (text or CSV) followed, in text mode, by each lock's
// acquire-latency histogram.
func FprintReport(w io.Writer, title string, names []string, snaps map[string]Snapshot, csv bool) {
	t := BuildTable(title, names, snaps)
	if csv {
		t.RenderCSV(w)
		return
	}
	t.Render(w)
	for _, name := range names {
		s, ok := snaps[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n-- %s acquire latency --\n%s", name, s.Acquire.String())
	}
}
