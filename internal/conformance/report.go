package conformance

import "repro/internal/registry"

// CheckResult is one check's outcome for one entry. Err is nil on
// pass, a skipError (see Skipped) when the check does not apply, and
// a real error on failure.
type CheckResult struct {
	Check string
	Err   error
}

// Report aggregates every conformance check for one entry.
type Report struct {
	Entry   registry.Entry
	Results []CheckResult
	// Diff is set when the entry has a sim twin and the differential
	// checker ran (successfully or not — its error is in Results).
	Diff *DiffResult
}

// Failed reports whether any check failed (skips are not failures).
func (r Report) Failed() bool {
	for _, c := range r.Results {
		if c.Err != nil && !Skipped(c.Err) {
			return true
		}
	}
	return false
}

// CheckNames lists the suite's checks in Run's emission order.
// Front-ends derive their table headers from this, so a check added to
// Run cannot silently drift out of the rendered columns (pinned by
// TestRunMatchesCheckNames).
func CheckNames() []string {
	return []string{
		"mutex", "trylock", "bounded", "abandon", "unlock",
		"read-sharing", "differential",
	}
}

// Run executes the full suite — mutual exclusion, TryLock soundness,
// bounded contract, abandonment safety, unlock discipline, read-path
// sharing for entries whose lock offers a read path, and (for
// twin-declaring entries) the differential checker — against one
// entry.
func Run(e registry.Entry, o Options) Report {
	o = o.withDefaults()
	r := Report{Entry: e}
	add := func(name string, err error) {
		r.Results = append(r.Results, CheckResult{Check: name, Err: err})
	}
	add("mutex", CheckMutualExclusion(e, o))
	add("trylock", CheckTryLock(e, o))
	add("bounded", CheckBounded(e, o))
	add("abandon", CheckAbandonment(e, o))
	add("unlock", CheckUnlockDiscipline(e))
	add("read-sharing", CheckReadSharing(e, o))
	if e.SimTwin == "" {
		add("differential", skipError("no sim twin"))
	} else {
		diff, err := RunDifferential(e, o.Seed, o.Schedules)
		r.Diff = &diff
		add("differential", err)
	}
	return r
}
