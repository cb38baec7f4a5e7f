package explore

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	search "repro/internal/explore"
)

// Shrunk is a minimized failing repro: the smallest (script, schedule)
// pair the shrinker could reach that still produces a violation of the
// original class under the same Config (seed, topology, mutations).
type Shrunk struct {
	Class    string          // violation class being preserved
	Schedule []int           // minimized branch choices
	Script   *cluster.Script // minimized fault script (nil if none needed)
	Result   *cluster.Result // the replay of the minimized repro
}

// Shrink delta-debugs a failing (Config, schedule) pair down to a
// locally minimal repro. The reduction target is the class of the
// first violation the input produces: every accepted reduction must
// still yield at least one violation of that class, so the shrunk
// repro fails the same way, not merely somehow.
//
// The schedule half is the shared shrinker (search.Shrink); this
// adapter alternates it with removing single script steps until
// neither reduces further. At the fixpoint no single removal
// reproduces the class — the result is 1-minimal. Every trial is a
// deterministic replay, so the same failure always shrinks to the
// same repro.
func Shrink(cfg cluster.Config, schedule []int) (*Shrunk, error) {
	cfg.Scheduler = nil
	base, err := Replay(cfg, schedule)
	if err != nil {
		return nil, err
	}
	if len(base.Violations) == 0 {
		return nil, fmt.Errorf("explore: input does not reproduce any violation")
	}
	class := base.Violations[0].Class

	fails := func(sc *cluster.Script, sched []int) bool {
		c := cfg
		c.Script = sc
		r, rerr := Replay(c, sched)
		if rerr != nil {
			return false
		}
		for _, v := range r.Violations {
			if v.Class == class {
				return true
			}
		}
		return false
	}

	sched := schedule
	script := cfg.Script
	for changed := true; changed; {
		changed = false
		sched = search.Shrink(sched, func(s []int) bool { return fails(script, s) })
		if script == nil {
			break
		}
		for i := 0; i < len(script.Steps); i++ {
			trial := &cluster.Script{
				Steps: append(append([]cluster.Step(nil), script.Steps[:i]...), script.Steps[i+1:]...),
			}
			if fails(trial, sched) {
				script = trial
				changed = true
				i--
			}
		}
		if len(script.Steps) == 0 {
			script = nil
		}
	}

	c := cfg
	c.Script = script
	final, err := Replay(c, sched)
	if err != nil {
		return nil, err
	}
	return &Shrunk{Class: class, Schedule: sched, Script: script, Result: final}, nil
}

// ReproFile renders the shrunk repro as a canonical fault-script file
// with a commented header carrying everything else needed to replay
// it: the preset, seed, mutation flags, and branch schedule. The body
// parses with cluster.ParseScript (comments are ignored), so the file
// doubles as the -script-file input to cmd/clustersim.
func (sh *Shrunk) ReproFile(preset string, seed uint64, mutations []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# shrunk repro: class=%s\n", sh.Class)
	fmt.Fprintf(&b, "# preset=%s seed=%d\n", preset, seed)
	if len(mutations) > 0 {
		fmt.Fprintf(&b, "# mutations: %s\n", strings.Join(mutations, " "))
	}
	fmt.Fprintf(&b, "# schedule: %s\n", search.FormatSchedule(sh.Schedule))
	if sh.Script != nil {
		b.WriteString(sh.Script.Format())
	}
	return b.String()
}
