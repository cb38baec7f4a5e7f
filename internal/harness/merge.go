package harness

import (
	"fmt"

	"repro/internal/lockstat"
)

// Merge combines several harness invocations' results into one file
// published under a new harness name — the way a committed baseline
// covers more than one benchmark command (e.g. a mutexbench sweep plus
// a sharded kvbench sweep) while staying a single schema-versioned
// unit for cmd/benchdiff, whose comparator refuses cross-harness
// diffs precisely so that only deliberately merged files span
// harnesses.
//
// Rules: every input must share one track (comparability is
// per-track); cell keys must be globally unique after merging, so an
// accidental double-include of the same sweep fails loudly instead of
// silently shadowing cells; per-source config and lockstat entries
// are preserved under "<harness>."-prefixed keys. The first input's
// environment is kept — merging is for files produced back-to-back on
// one host, and the per-source envs would disagree only in ways the
// diff's environment checks should have caught upstream.
func Merge(name string, rs ...*Result) (*Result, error) {
	if name == "" {
		return nil, fmt.Errorf("harness: merge needs a non-empty merged harness name")
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("harness: nothing to merge")
	}
	merged := &Result{
		Schema:  SchemaVersion,
		Harness: name,
		Track:   rs[0].Track,
		Config:  map[string]string{},
		Env:     rs[0].Env,
	}
	seen := map[string]string{} // cell key → source harness
	for _, r := range rs {
		if r.Track != merged.Track {
			return nil, fmt.Errorf("harness: cannot merge track %q (%s) with track %q (%s)",
				merged.Track, rs[0].Harness, r.Track, r.Harness)
		}
		for k, v := range r.Config {
			merged.Config[r.Harness+"."+k] = v
		}
		for _, c := range r.Cells {
			if src, dup := seen[c.Key()]; dup {
				return nil, fmt.Errorf("harness: merge collision on cell %s (present in %s and %s)",
					c.Key(), src, r.Harness)
			}
			seen[c.Key()] = r.Harness
			merged.Add(c)
		}
		for lock, snap := range r.Lockstat {
			if merged.Lockstat == nil {
				merged.Lockstat = map[string]lockstat.Snapshot{}
			}
			merged.Lockstat[r.Harness+"."+lock] = snap
		}
	}
	return merged, nil
}
