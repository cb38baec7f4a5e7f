// Command clusterexplore runs stateless model checking over the
// deterministic cluster simulation: it enumerates the delivery/timer
// orders a schedule controller can impose on a small topology preset,
// replaying the full simulation (and its invariant battery) once per
// schedule. On a violation it delta-debugs the failing (script,
// schedule) pair to a locally minimal repro and prints the exact
// cmd/clustersim invocation that replays it.
//
// Usage:
//
//	clusterexplore -list
//	clusterexplore [-preset=explore-small] [-seed=1] [-script=NAME|FILE]
//	               [-delays=N] [-window=DUR] [-budget=N] [-max-branch=N]
//	               [-no-fencing] [-break-dedup] [-skip-reconcile]
//	               [-schedule=0,0,1] [-repro-out=FILE] [-quiet]
//
// -delays bounds the search to schedules within N delays of canonical
// order (negative, the default, means exhaustive). -schedule skips the
// search and replays one fixed schedule. -repro-out writes the shrunk
// repro as a canonical script file whose header comments carry the
// preset, seed, mutations, and branch schedule.
//
// Exit codes follow the shared model-checking convention
// (internal/verdict): 0 VERIFIED, 1 violation found, 2 usage error,
// 3 INCOMPLETE (search truncated by budget or depth; not a proof).
// Exit 2 is reserved for flag/argument mistakes; a checker runtime
// failure (e.g. a broken determinism contract) also exits 3 — no
// verdict was reached, and a CI gate must never read a checker crash
// as a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/explore"
	search "repro/internal/explore"
	"repro/internal/verdict"
)

type options struct {
	preset      string
	seed        uint64
	script      string
	delays      int
	window      time.Duration
	budget      int
	maxBr       int
	noFence     bool
	dedup       bool
	skipRec     bool
	schedule    string
	scheduleSet bool
	reproOut    string
	quiet       bool
	list        bool
}

func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("clusterexplore", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	fs.StringVar(&o.preset, "preset", "explore-small", "topology/timing preset (see -list)")
	fs.Uint64Var(&o.seed, "seed", 1, "PRNG seed for the simulation's own draws")
	fs.StringVar(&o.script, "script", "", "fault script: canonical name or file path")
	fs.IntVar(&o.delays, "delays", -1, "delay bound (schedules within N delays of canonical); negative = exhaustive")
	fs.DurationVar(&o.window, "window", 0, "override the preset's schedule window (0 = preset value)")
	fs.IntVar(&o.budget, "budget", 0, "max schedules to run (0 = default)")
	fs.IntVar(&o.maxBr, "max-branch", 0, "max branch points per schedule (0 = unlimited)")
	fs.BoolVar(&o.noFence, "no-fencing", false, "mutation: disable the replica fencing gate")
	fs.BoolVar(&o.dedup, "break-dedup", false, "mutation: disable replica write dedup")
	fs.BoolVar(&o.skipRec, "skip-reconcile", false, "mutation: drop the post-heal reconcile pass")
	fs.StringVar(&o.schedule, "schedule", "", "replay this fixed branch-choice schedule instead of searching")
	fs.StringVar(&o.reproOut, "repro-out", "", "on violation, write the shrunk repro script here")
	fs.BoolVar(&o.quiet, "quiet", false, "print only the verdict line")
	fs.BoolVar(&o.list, "list", false, "list presets and canonical scripts, then exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "schedule" {
			o.scheduleSet = true
		}
	})
	return o, nil
}

func loadScript(arg string) (*cluster.Script, error) {
	if arg == "" {
		return nil, nil
	}
	if s, err := cluster.LoadScript(arg); err == nil {
		return s, nil
	}
	text, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("-script %q is neither a canonical script nor a readable file: %w", arg, err)
	}
	return cluster.ParseScript(string(text))
}

func (o *options) buildConfig() (cluster.Config, error) {
	cfg, err := cluster.Preset(o.preset)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg.Seed = o.seed
	if o.window > 0 {
		cfg.ScheduleWindow = o.window
	}
	cfg.DisableFencing = o.noFence
	cfg.BreakDedup = o.dedup
	cfg.SkipReconcile = o.skipRec
	script, err := loadScript(o.script)
	if err != nil {
		return cluster.Config{}, err
	}
	// Validate here so a script that parses but names out-of-range
	// endpoints is a usage error (exit 2), not a runtime failure deep
	// inside the search.
	if script != nil {
		if err := script.Validate(cfg.Nodes, cfg.Shards); err != nil {
			return cluster.Config{}, fmt.Errorf("-script %q: %w", o.script, err)
		}
	}
	cfg.Script = script
	return cfg, nil
}

// runtimeFailure reports a checker malfunction (nondeterministic
// replay, a simulation error that slipped past flag validation): no
// verdict was reached, so the run is INCOMPLETE — exit 2 stays
// reserved for flag/argument errors.
func runtimeFailure(preset, what string, err error, out, errOut io.Writer) int {
	fmt.Fprintln(errOut, err)
	fmt.Fprintln(out, verdict.Line(preset, verdict.Incomplete,
		fmt.Sprintf("%s aborted: %v", what, err)))
	return verdict.ExitIncomplete
}

// mutationFlags renders the active mutation flags, for repro lines and
// the repro file header.
func (o *options) mutationFlags() []string {
	var m []string
	if o.noFence {
		m = append(m, "-no-fencing")
	}
	if o.dedup {
		m = append(m, "-break-dedup")
	}
	if o.skipRec {
		m = append(m, "-skip-reconcile")
	}
	return m
}

// reproLine renders the cmd/clustersim invocation that replays a
// repro: the preset pins topology and timing, the script argument the
// faults, and the schedule the branch choices.
func (o *options) reproLine(scriptArg string, schedule []int) string {
	parts := []string{"clustersim",
		fmt.Sprintf("-preset=%s", o.preset),
		fmt.Sprintf("-seed=%d", o.seed),
	}
	if scriptArg != "" {
		parts = append(parts, fmt.Sprintf("-script=%s", scriptArg))
	}
	if o.window > 0 {
		parts = append(parts, fmt.Sprintf("-window=%v", o.window))
	}
	parts = append(parts, o.mutationFlags()...)
	parts = append(parts, fmt.Sprintf("-schedule=%s", search.FormatSchedule(schedule)))
	return strings.Join(parts, " ")
}

func list(out io.Writer) {
	fmt.Fprintln(out, "presets:")
	for _, name := range cluster.PresetNames() {
		cfg, _ := cluster.Preset(name)
		fmt.Fprintf(out, "  %-16s %d nodes × %d shards, horizon %v, window %v\n",
			name, cfg.Nodes, cfg.Shards, cfg.Duration, cfg.ScheduleWindow)
	}
	fmt.Fprintln(out, "canonical fault scripts:")
	for _, name := range cluster.ScriptNames() {
		s, err := cluster.LoadScript(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(out, "  %-24s %d steps\n", name, len(s.Steps))
	}
}

func run(args []string, out, errOut io.Writer) int {
	o, err := parseFlags(args, errOut)
	if err != nil {
		return verdict.ExitUsage
	}
	if o.list {
		list(out)
		return verdict.ExitVerified
	}
	cfg, err := o.buildConfig()
	if err != nil {
		fmt.Fprintln(errOut, err)
		return verdict.ExitUsage
	}

	if o.scheduleSet {
		return o.runReplay(cfg, out, errOut)
	}
	return o.runSearch(cfg, out, errOut)
}

// runReplay executes one fixed schedule — the repro path.
func (o *options) runReplay(cfg cluster.Config, out, errOut io.Writer) int {
	sched, err := search.ParseSchedule(o.schedule)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return verdict.ExitUsage
	}
	res, err := explore.Replay(cfg, sched)
	if err != nil {
		return runtimeFailure(o.preset, "replay", err, out, errOut)
	}
	if len(res.Violations) > 0 {
		fmt.Fprintln(out, verdict.Line(o.preset, verdict.Violation,
			fmt.Sprintf("schedule %q: %v", o.schedule, res.Violations[0])))
		if !o.quiet {
			fmt.Fprint(errOut, res.FailureReport(o.reproLine(o.script, sched)))
		}
		return verdict.ExitViolation
	}
	fmt.Fprintln(out, verdict.Line(o.preset, verdict.Verified,
		fmt.Sprintf("schedule %q replayed clean in %d events", o.schedule, res.Events)))
	return verdict.ExitVerified
}

// runSearch is the main path: enumerate, and on a violation shrink and
// report.
func (o *options) runSearch(cfg cluster.Config, out, errOut io.Writer) int {
	opts := explore.Options{Config: cfg, Options: search.Options{
		MaxBranch: o.maxBr,
		Budget:    o.budget,
		Delays:    o.delays,
	}}
	res, err := explore.Search(opts)
	if err != nil {
		return runtimeFailure(o.preset, "search", err, out, errOut)
	}

	bound := "exhaustive"
	if o.delays >= 0 {
		bound = fmt.Sprintf("delay-bounded ≤%d", o.delays)
	}
	switch {
	case res.Violation != nil:
		return o.reportViolation(cfg, res, out, errOut)
	case res.Verified():
		fmt.Fprintln(out, verdict.Line(o.preset, verdict.Verified,
			fmt.Sprintf("%s search: %d schedules pass (pruned %d, max depth %d)",
				bound, res.Stats.Schedules, res.Stats.PrunedTails, res.Stats.MaxDepth)))
		return verdict.ExitVerified
	default:
		why := "budget exhausted"
		if res.DepthCapped {
			why = "depth-capped at -max-branch"
		}
		fmt.Fprintln(out, verdict.Line(o.preset, verdict.Incomplete,
			fmt.Sprintf("%s search truncated (%s) after %d schedules; no violation found, but this is not a verification",
				bound, why, res.Stats.Schedules)))
		return verdict.ExitIncomplete
	}
}

func (o *options) reportViolation(cfg cluster.Config, res *explore.Result, out, errOut io.Writer) int {
	fmt.Fprintln(out, verdict.Line(o.preset, verdict.Violation,
		fmt.Sprintf("after %d schedules: %v\nschedule: %s",
			res.Stats.Schedules, res.Violation.Violations[0], search.FormatSchedule(res.Schedule))))

	sh, err := explore.Shrink(cfg, res.Schedule)
	if err != nil {
		// Shrinking failed (should not happen for a reproducible
		// violation); fall back to the unshrunk repro.
		fmt.Fprintf(errOut, "shrink failed: %v\n", err)
		fmt.Fprintf(out, "repro: %s\n", o.reproLine(o.script, res.Schedule))
		return verdict.ExitViolation
	}
	steps := 0
	if sh.Script != nil {
		steps = len(sh.Script.Steps)
	}
	if !o.quiet {
		fmt.Fprintf(out, "shrunk: class=%s schedule=[%s] script=%d step(s)\n",
			sh.Class, search.FormatSchedule(sh.Schedule), steps)
		fmt.Fprint(errOut, sh.Result.FailureReport(""))
	}

	scriptArg := o.script
	if o.reproOut != "" {
		text := sh.ReproFile(o.preset, o.seed, o.mutationFlags())
		if werr := os.WriteFile(o.reproOut, []byte(text), 0o644); werr != nil {
			fmt.Fprintf(errOut, "writing -repro-out: %v\n", werr)
		} else {
			scriptArg = o.reproOut
			fmt.Fprintf(out, "repro script written to %s\n", o.reproOut)
		}
	}
	if scriptArg == o.script {
		// No repro file: the line must replay against the ORIGINAL
		// script, so use the unshrunk schedule (the shrunk one is only
		// minimal jointly with the shrunk script).
		fmt.Fprintf(out, "repro: %s\n", o.reproLine(o.script, res.Schedule))
	} else {
		fmt.Fprintf(out, "repro: %s\n", o.reproLine(scriptArg, sh.Schedule))
	}
	return verdict.ExitViolation
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
