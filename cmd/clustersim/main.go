// Command clustersim runs the deterministic cluster simulation: N
// kvstore replicas coordinated by a lease-based lock service with
// fencing tokens, under a scripted, seed-replayable fault schedule.
//
// Usage:
//
//	clustersim -list
//	clustersim [-nodes=5] [-shards=4] [-seed=1] [-script=NAME|FILE]
//	           [-duration=1.5s] [-heal=2s] [-no-fencing] [-trace] [-quiet]
//	clustersim -preset=explore-small [-schedule=0,0,1] [-window=1ms]
//	           [-break-dedup] [-skip-reconcile] ...
//
// -script accepts a canonical script name (see -list) or a path to a
// fault-script file. On an invariant violation the process exits 1
// after printing a failure report that includes the seed, the script,
// and the trace suffix — the printed repro line replays the run
// exactly.
//
// -preset starts from a named topology/timing preset (the same ones
// cmd/clusterexplore searches over); explicitly-set flags still
// override individual preset fields. -schedule replays a fixed
// branch-choice schedule found by clusterexplore, which is how a
// shrunk repro file's header is replayed here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	search "repro/internal/explore"
)

type options struct {
	nodes, shards int
	seed          uint64
	script        string
	duration      time.Duration
	heal          time.Duration
	preset        string
	window        time.Duration
	schedule      string
	realLock      string
	noFencing     bool
	breakDedup    bool
	skipReconcile bool
	trace         bool
	quiet         bool
	list          bool

	set map[string]bool // flags explicitly present on the command line
}

func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	fs.IntVar(&o.nodes, "nodes", 5, "replica count")
	fs.IntVar(&o.shards, "shards", 4, "shards per replica")
	fs.Uint64Var(&o.seed, "seed", 1, "PRNG seed; same seed+script replays byte-identically")
	fs.StringVar(&o.script, "script", "", "fault script: canonical name (see -list) or file path")
	fs.DurationVar(&o.duration, "duration", 0, "workload horizon (0 = default 1.5s)")
	fs.DurationVar(&o.heal, "heal", 0, "post-heal drain window (0 = default 2s)")
	fs.StringVar(&o.preset, "preset", "", "start from a named preset (see clusterexplore -list); other flags override")
	fs.DurationVar(&o.window, "window", 0, "schedule window for co-ready events (0 = preset/default)")
	fs.StringVar(&o.schedule, "schedule", "", "fixed branch-choice schedule from clusterexplore (e.g. 0,0,1)")
	fs.StringVar(&o.realLock, "real-lock", "", "back every shard lease with a real registry-built lock of this name (preset real-lock-small sets Recipro)")
	fs.BoolVar(&o.noFencing, "no-fencing", false, "disable the replica fencing gate (negative testing)")
	fs.BoolVar(&o.breakDedup, "break-dedup", false, "disable replica write dedup (negative testing)")
	fs.BoolVar(&o.skipReconcile, "skip-reconcile", false, "drop the post-heal reconcile pass (negative testing)")
	fs.BoolVar(&o.trace, "trace", false, "print the full event trace")
	fs.BoolVar(&o.quiet, "quiet", false, "print only violations")
	fs.BoolVar(&o.list, "list", false, "list canonical scripts and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

// loadScript resolves -script: empty means no faults, a canonical name
// wins over a file, anything else is read from disk.
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

// buildConfig assembles the run Config. With -preset, the preset
// supplies every field and explicitly-set flags override one at a
// time; without it, the classic flag set applies directly.
func (o *options) buildConfig() (cluster.Config, error) {
	var cfg cluster.Config
	if o.preset != "" {
		p, err := cluster.Preset(o.preset)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg = p
		if o.set["nodes"] {
			cfg.Nodes = o.nodes
		}
		if o.set["shards"] {
			cfg.Shards = o.shards
		}
		if o.set["duration"] {
			cfg.Duration = o.duration
		}
		if o.set["heal"] {
			cfg.Heal = o.heal
		}
	} else {
		cfg = cluster.Config{
			Nodes: o.nodes, Shards: o.shards,
			Duration: o.duration, Heal: o.heal,
		}
	}
	cfg.Seed = o.seed
	if o.set["window"] && o.window > 0 {
		cfg.ScheduleWindow = o.window
	}
	if o.set["real-lock"] {
		cfg.RealLockName = o.realLock
	}
	cfg.DisableFencing = o.noFencing
	cfg.BreakDedup = o.breakDedup
	cfg.SkipReconcile = o.skipReconcile

	script, err := loadScript(o.script)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg.Script = script

	if o.set["schedule"] {
		sched, err := search.ParseSchedule(o.schedule)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Scheduler = search.FixedSchedule[cluster.ReadyEvent](sched)
	}
	return cfg, nil
}

// reproLine renders the exact invocation that replays this run.
func reproLine(o *options) string {
	parts := []string{"clustersim"}
	if o.preset != "" {
		parts = append(parts, fmt.Sprintf("-preset=%s", o.preset))
	} else {
		parts = append(parts,
			fmt.Sprintf("-nodes=%d", o.nodes),
			fmt.Sprintf("-shards=%d", o.shards))
	}
	parts = append(parts, fmt.Sprintf("-seed=%d", o.seed))
	if o.script != "" {
		parts = append(parts, fmt.Sprintf("-script=%s", o.script))
	}
	if o.set["real-lock"] && o.realLock != "" {
		parts = append(parts, fmt.Sprintf("-real-lock=%s", o.realLock))
	}
	if o.set["duration"] && o.duration != 0 {
		parts = append(parts, fmt.Sprintf("-duration=%v", o.duration))
	}
	if o.set["heal"] && o.heal != 0 {
		parts = append(parts, fmt.Sprintf("-heal=%v", o.heal))
	}
	if o.set["window"] && o.window != 0 {
		parts = append(parts, fmt.Sprintf("-window=%v", o.window))
	}
	if o.noFencing {
		parts = append(parts, "-no-fencing")
	}
	if o.breakDedup {
		parts = append(parts, "-break-dedup")
	}
	if o.skipReconcile {
		parts = append(parts, "-skip-reconcile")
	}
	if o.set["schedule"] {
		parts = append(parts, fmt.Sprintf("-schedule=%s", o.schedule))
	}
	return strings.Join(parts, " ")
}

func listScripts(out io.Writer) {
	names := cluster.ScriptNames()
	sort.Strings(names)
	fmt.Fprintln(out, "canonical fault scripts:")
	for _, name := range names {
		s, err := cluster.LoadScript(name)
		if err != nil {
			fmt.Fprintf(out, "  %-24s <error: %v>\n", name, err)
			continue
		}
		fmt.Fprintf(out, "  %-24s %d steps\n", name, len(s.Steps))
	}
}

func run(args []string, out, errOut io.Writer) int {
	o, err := parseFlags(args, errOut)
	if err != nil {
		return 2
	}
	if o.list {
		listScripts(out)
		return 0
	}
	cfg, err := o.buildConfig()
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}

	if o.trace {
		for _, line := range res.Trace {
			fmt.Fprintln(out, line)
		}
	}
	if len(res.Violations) > 0 {
		fmt.Fprint(errOut, res.FailureReport(reproLine(o)))
		return 1
	}
	if !o.quiet {
		printSummary(out, o, res)
	}
	return 0
}

func printSummary(out io.Writer, o *options, res *cluster.Result) {
	scriptName := o.script
	if scriptName == "" {
		scriptName = "<none>"
	}
	c := res.Counters
	fmt.Fprintf(out, "clustersim: OK  nodes=%d shards=%d seed=%d script=%s\n",
		res.Config.Nodes, res.Config.Shards, o.seed, scriptName)
	fmt.Fprintf(out, "  simulated %v in %d events; all invariants held\n", res.End, res.Events)
	fmt.Fprintf(out, "  leases: %d grants, %d denies\n", c.Grants, c.Denies)
	fmt.Fprintf(out, "  writes: %d issued, %d committed, %d stale-fenced at replicas, %d fenced at origin\n",
		c.Writes, c.Committed, c.StaleRejected, c.FencedWrites)
	fmt.Fprintf(out, "  network: %d sent, %d dropped, %d duplicated, %d retransmits\n",
		c.Sent, c.Dropped, c.Duplicated, c.Retransmits)
	fmt.Fprintf(out, "  repair: %d sync diffs, %d writes lost to crashes\n", c.SyncDiffs, c.LostWrites)
	fmt.Fprintf(out, "  repro: %s\n", reproLine(o))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
