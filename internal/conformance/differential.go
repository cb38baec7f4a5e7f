package conformance

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/simlocks"
	"repro/internal/xrand"
)

// DiffResult summarizes one entry's differential run.
type DiffResult struct {
	Entry     string
	Twin      string
	Schedules int
	Events    int
	MaxBypass int
	// Detaches is the total model segment-detach count across all
	// schedules; SimDetaches is the sim lock's own counter when it
	// exposes one (-1 otherwise). For sim Recipro both must agree.
	Detaches    int
	SimDetaches int
}

// ErrNoTwin reports a differential request for an entry without a sim
// twin.
type ErrNoTwin struct{ Entry string }

func (e *ErrNoTwin) Error() string {
	return fmt.Sprintf("entry %s declares no sim twin", e.Entry)
}

// RunDifferential drives entry's real lock and its declared sim twin
// through `schedules` generated admission programs (derived from seed)
// and verifies, per program, that real lock, sim twin, and the
// abstract admission model produce the same admission order, that the
// segment/detach structure matches, that bypass stays within the
// discipline's bound, and that both tracks preserve mutual exclusion
// over a guarded counter.
func RunDifferential(e registry.Entry, seed uint64, schedules int) (DiffResult, error) {
	res := DiffResult{Entry: e.Name, Twin: e.SimTwin, SimDetaches: -1}
	if e.SimTwin == "" {
		return res, &ErrNoTwin{Entry: e.Name}
	}
	mk := simlocks.ByName(e.SimTwin)
	if mk == nil {
		return res, fmt.Errorf("entry %s: sim twin %q not found in simlocks", e.Name, e.SimTwin)
	}
	kind, ok := ModelKindFor(e)
	if !ok {
		return res, fmt.Errorf("entry %s: family %s has no admission model", e.Name, e.Family)
	}

	rng := xrand.NewSplitMix64(seed)
	simDetaches := 0
	sawSimDetaches := false
	for s := 0; s < schedules; s++ {
		threads := 2 + int(rng.Uint64()%4)  // 2..5 logical threads
		episodes := 1 + int(rng.Uint64()%3) // 1..3 episodes each
		p := NewProgram(rng.Uint64(), threads, episodes, kind)
		if err := p.Validate(); err != nil {
			return res, fmt.Errorf("schedule %d: generator self-check: %w", s, err)
		}
		if err := runReal(e.New(nil), p); err != nil {
			return res, fmt.Errorf("schedule %d (seed %#x, %d threads × %d episodes): real %s: %w",
				s, p.Seed, threads, episodes, e.Name, err)
		}
		sd, err := runSim(mk, p)
		if err != nil {
			return res, fmt.Errorf("schedule %d (seed %#x, %d threads × %d episodes): sim %s: %w",
				s, p.Seed, threads, episodes, e.SimTwin, err)
		}
		if sd >= 0 {
			sawSimDetaches = true
			simDetaches += sd
			if sd != p.Detaches {
				return res, fmt.Errorf("schedule %d: sim %s detached %d segments, model expects %d",
					s, e.SimTwin, sd, p.Detaches)
			}
		}
		res.Schedules++
		res.Events += len(p.Events)
		res.Detaches += p.Detaches
		if b := p.MaxBypass(); b > res.MaxBypass {
			res.MaxBypass = b
		}
	}
	if sawSimDetaches {
		res.SimDetaches = simDetaches
	}
	return res, nil
}

// TwinEntries returns the catalog entries declaring a sim twin, in
// catalog order.
func TwinEntries() []registry.Entry {
	var out []registry.Entry
	for _, e := range registry.All() {
		if e.SimTwin != "" {
			out = append(out, e)
		}
	}
	return out
}
