package explore

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	search "repro/internal/explore"
)

// mutations is the table of seeded protocol breaks the explorer must
// catch, each with the invariant class that must pin it.
var mutations = []struct {
	name  string
	apply func(*cluster.Config)
	class string
	// needsSearch pins that the canonical schedule alone does NOT
	// expose the bug — the enumeration is what finds it.
	needsSearch bool
}{
	{
		name:        "no-fencing",
		apply:       func(c *cluster.Config) { c.DisableFencing = true },
		class:       cluster.ClassStaleApply,
		needsSearch: true,
	},
	{
		name:        "break-dedup",
		apply:       func(c *cluster.Config) { c.BreakDedup = true },
		class:       cluster.ClassVersionRegres,
		needsSearch: true,
	},
	{
		name:  "skip-reconcile",
		apply: func(c *cluster.Config) { c.SkipReconcile = true },
		class: cluster.ClassReconcile,
		// finish() notices the missing reconcile on every schedule.
		needsSearch: false,
	},
}

func hasClass(r *cluster.Result, class string) bool {
	if r == nil {
		return false
	}
	for _, v := range r.Violations {
		if v.Class == class {
			return true
		}
	}
	return false
}

// TestExploreFindsMutations is the mutation battery: for each seeded
// bug the delay-bounded hunt must find a violating schedule of the
// right class, the shrinker must reduce it to a 1-minimal repro of the
// same class, and that repro must replay.
func TestExploreFindsMutations(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := huntCfg(t, 1)
			m.apply(&cfg)

			if m.needsSearch {
				canon, err := Replay(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(canon.Violations) != 0 {
					t.Fatalf("canonical schedule already fails — mutation needs no search:\n%s",
						canon.FailureReport(""))
				}
			}

			opts := DefaultOptions(cfg)
			opts.Delays = 2
			res, err := Search(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("hunt missed the %s mutation: %+v", m.name, res.Stats)
			}
			if got := res.Violation.Violations[0].Class; got != m.class {
				t.Fatalf("first violation class %s, want %s", got, m.class)
			}

			sh, err := Shrink(cfg, res.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if sh.Class != m.class {
				t.Fatalf("shrunk class %s, want %s", sh.Class, m.class)
			}
			if !hasClass(sh.Result, m.class) {
				t.Fatal("shrunk repro does not replay its own class")
			}
			if len(sh.Schedule) > len(res.Schedule) {
				t.Errorf("shrink grew the schedule: %d > %d", len(sh.Schedule), len(res.Schedule))
			}

			// Independent replay of the shrunk repro, as cmd/clustersim
			// would run it: fresh config, fixed schedule, no search.
			c := cfg
			c.Script = sh.Script
			rep, err := Replay(c, sh.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if !hasClass(rep, m.class) {
				t.Fatalf("independent replay lost the violation:\n%s", rep.FailureReport(""))
			}

			assertOneMinimal(t, c, sh)
		})
	}
}

// assertOneMinimal verifies the shrinker's contract directly: removing
// any single schedule entry or script step from the shrunk repro makes
// the violation class disappear.
func assertOneMinimal(t *testing.T, cfg cluster.Config, sh *Shrunk) {
	t.Helper()
	fails := func(sc *cluster.Script, sched []int) bool {
		c := cfg
		c.Script = sc
		r, err := Replay(c, sched)
		return err == nil && hasClass(r, sh.Class)
	}
	for i := range sh.Schedule {
		trial := append(append([]int(nil), sh.Schedule[:i]...), sh.Schedule[i+1:]...)
		if fails(sh.Script, trial) {
			t.Errorf("not 1-minimal: schedule entry %d removable", i)
		}
	}
	if sh.Script != nil {
		for i := range sh.Script.Steps {
			trial := &cluster.Script{
				Steps: append(append([]cluster.Step(nil), sh.Script.Steps[:i]...), sh.Script.Steps[i+1:]...),
			}
			if fails(trial, sh.Schedule) {
				t.Errorf("not 1-minimal: script step %d removable", i)
			}
		}
	}
}

// TestReproFileRoundTrip pins that the emitted repro file's body is a
// parseable canonical script and the header carries the schedule.
func TestReproFileRoundTrip(t *testing.T) {
	cfg := huntCfg(t, 1)
	cfg.DisableFencing = true
	opts := DefaultOptions(cfg)
	opts.Delays = 2
	res, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("hunt found nothing")
	}
	sh, err := Shrink(cfg, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	text := sh.ReproFile("explore-small", 1, []string{"-no-fencing"})
	if !strings.Contains(text, "class="+sh.Class) {
		t.Errorf("repro file missing class header:\n%s", text)
	}
	if !strings.Contains(text, "# schedule: "+search.FormatSchedule(sh.Schedule)) {
		t.Errorf("repro file missing schedule header:\n%s", text)
	}
	parsed, err := cluster.ParseScript(text)
	if err != nil {
		t.Fatalf("repro file does not parse as a script: %v", err)
	}
	wantSteps := 0
	if sh.Script != nil {
		wantSteps = len(sh.Script.Steps)
	}
	if len(parsed.Steps) != wantSteps {
		t.Errorf("repro file has %d steps, shrunk script has %d", len(parsed.Steps), wantSteps)
	}
}
