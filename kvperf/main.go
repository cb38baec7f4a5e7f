// Command kvperf is the repository benchmark. It drives the public
// kvstore.Store API over locks built by registry.Build with two
// closed-loop clients, checks every output, and prints its metrics by
// name with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	kvperf --workload hot-get --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one plain run.
// With --trace 1 it makes a plain run and then a traced run, whose lock
// shims and span timers give the per-layer metrics; the throughput gap
// between the two is the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"

	"repro/internal/kvstore"
	"repro/internal/lockstat"
	"repro/internal/rwlock"
	"repro/internal/stats"
)

// The JSON line carries exactly these metrics: endToEnd with --trace 0,
// perLayer with --trace 1. The human-readable lines above it carry
// more, such as per-operation latencies with their sample counts.
var (
	endToEnd = []string{"ops_per_cpu_s", "read_p50_us", "read_p90_us", "space_amp", "setup_s"}
	perLayer = []string{
		"lock.acquire_ns.p50", "lock.acquire_ns.p99", "lock.release_ns.p50", "lock.wait_frac",
		"lockstat.contended_frac", "lockstat.handover_frac",
		"waiter.spins_per_acq", "waiter.yields_per_acq", "waiter.parks_per_acq",
		"kvstore.lock_episodes_per_op",
		"kvstore.get.self_ns.p50", "kvstore.get.self_ns.p99", "kvstore.runs.mean", "kvstore.hit_ratio",
		"rwlock.rlock_ns.p50", "rwlock.rlock_ns.p99",
		"registry.episode_ns.base", "registry.episode_ns.veto", "registry.episode_ns.bounded",
		"registry.episode_ns.stats_nil", "registry.episode_ns.stats_live",
		"lock.hold_ns.p50", "lock.hold_ns.p99", "kvstore.put.self_ns.p50", "kvstore.put.self_ns.p99",
		"kvstore.freezes_per_s", "kvstore.compactions_per_s",
		"kvstore.write.self_ns.p50", "kvstore.write.self_ns.p99", "kvstore.write.stripes_per_batch",
		"kvstore.iter.open_ns.p50", "kvstore.iter.open_ns.p99", "kvstore.iter.next_ns.p50",
		"kvstore.allocs_per_op", "kvstore.alloc_bytes_per_op", "runtime.gc_cpu_frac",
		"kvstore.iter.torn_groups", "trace.overhead_frac",
	}
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-get, cold-mixed or scan-batch")
	seed := fs.Uint64("seed", 1, "seed of the generated operation streams")
	seconds := fs.Int("seconds", 10, "measured seconds per run, after a 1 s warm-up")
	trace := fs.Int("trace", 0, "0: one plain run, end-to-end metrics; 1: plain and traced runs, per-layer metrics")
	spanLog := fs.String("span-log", "", "file for the traced run's sampled spans (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "kvperf: need --workload one of %s, --seconds >= 1, --trace 0 or 1\n", workloadNames())
		return 2
	}
	if p := runtime.GOMAXPROCS(0); p < numClients {
		fmt.Fprintf(stderr, "kvperf: %d clients need GOMAXPROCS >= %d, have %d\n", numClients, numClients, p)
		return 2
	}
	env := envStamp(w, *seed, *seconds, *trace)
	fmt.Fprintln(stdout, "#", formatEnv(env))
	fmt.Fprintln(stdout, "# workload:", w.why)

	rep := &report{vals: map[string]metric{}}
	var out result
	var err error
	want := endToEnd
	if *trace == 0 {
		out = runEndToEnd(w, *seed, *seconds, rep)
	} else {
		want = perLayer
		out, err = runPerLayer(w, *seed, *seconds, *spanLog, env, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "kvperf:", err)
		return 1
	}
	rep.print(stdout)
	out.Metrics = map[string]metric{}
	for _, n := range want {
		m, ok := rep.vals[n]
		if !ok {
			fmt.Fprintln(stderr, "kvperf: metric not measured:", n)
			return 1
		}
		out.Metrics[n] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "kvperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// envStamp records what the numbers depend on besides the code.
func envStamp(w *workload, seed uint64, seconds, trace int) map[string]string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return map[string]string{
		"workload": w.name, "seed": fmt.Sprint(seed), "seconds": fmt.Sprint(seconds),
		"trace": fmt.Sprint(trace), "clients": fmt.Sprint(numClients),
		"num_cpu": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "git": rev + dirty,
	}
}

func formatEnv(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + env[k]
	}
	return strings.Join(parts, " ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects every measured figure in print order.
type report struct {
	lines []string
	vals  map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	r.vals[name] = metric{v, unit}
	r.lines = append(r.lines, fmt.Sprintf("%-32s %16.6g %-6s %s", name, v, unit, note))
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, strings.TrimRight(l, " "))
	}
}

// plainStats is the telemetry sink of the plain run: live lockstat
// when the workload's pipeline includes it, none for a bare lock.
func (w *workload) plainStats() *lockstat.Stats {
	if w.pipeline {
		return lockstat.New()
	}
	return nil
}

// readPathLost reports a store that was given a lock whose RLock
// shares but took no shared acquisition: it silently fell back to
// exclusive reads.
func (w *workload) readPathLost(st *lockstat.Stats) bool {
	return st != nil && rwlock.IsReadShared(w.buildLock(nil)) && st.Snapshot().RLocks == 0
}

// setup opens and fills a store on locks from newLock. It returns the
// store, the CPU seconds the process spent doing so, and the heap bytes
// the store retains. CPU time rather than wall time, because on a
// shared host the wall time of the same fill moves by a third with the
// time the hypervisor gives to other tenants.
func setup(w *workload, newLock func() sync.Locker) (kvstore.Store, float64, uint64) {
	runtime.GC()
	before := heapBytes()
	c0 := cpuSeconds()
	s := w.open(newLock)
	w.fill(s)
	secs := cpuSeconds() - c0
	runtime.GC()
	return s, secs, heapBytes() - before
}

// addLatencies reports the median-over-windows percentiles of every
// operation kind that ran, with its sample count.
func addLatencies(rep *report, prefix string, s *summary) {
	for _, k := range s.kinds() {
		note := fmt.Sprintf("n=%d", s.n[k])
		rep.add(prefix+kindNames[k]+"_p50_us", s.p50[k]/1e3, "us", note)
		rep.add(prefix+kindNames[k]+"_p90_us", s.p90[k]/1e3, "us", note)
		rep.add(prefix+kindNames[k]+"_p99_us", s.p99[k]/1e3, "us", note)
	}
}

func runEndToEnd(w *workload, seed uint64, seconds int, rep *report) result {
	st := w.plainStats()
	var s kvstore.Store
	var retained uint64
	setups := make([]float64, w.setupReps)
	for i := range setups {
		s, setups[i], retained = setup(w, func() sync.Locker { return w.buildLock(st) })
	}
	clients, cpu, _ := runPhase(w, s, seed, seconds, nil, nil)
	sum := summarize(clients, cpu)
	checks, bad := verify(s, clients)

	// The store's retained heap after the run: live heap with it, minus
	// without it.
	runtime.GC()
	withStore := heapBytes()
	runtime.KeepAlive(s)
	runtime.GC()
	afterRun := float64(withStore-heapBytes()) / w.dataBytes()

	attempted, failed := sum.ops+checks, sum.failed+bad
	rk, windows := w.readKind, len(clients[0].winOps)
	rep.add("ops_per_cpu_s", sum.opsPerCPU, "1/s", fmt.Sprintf("per second of process CPU time, median of %d windows", windows))
	rep.add("ops_per_s", sum.opsPerS, "1/s", fmt.Sprintf("per wall second, median of %d windows, n=%d", windows, sum.measured))
	rep.add("read_p50_us", sum.p50[rk]/1e3, "us", fmt.Sprintf("%s, n=%d", kindNames[rk], sum.n[rk]))
	rep.add("read_p90_us", sum.p90[rk]/1e3, "us", fmt.Sprintf("%s, n=%d", kindNames[rk], sum.n[rk]))
	addLatencies(rep, "", &sum)
	if symmetric(clients) {
		rep.add("client_jain", sum.jain, "ratio", "over the clients' completed operations")
	}
	rep.add("failed_frac", float64(failed)/float64(attempted), "ratio", fmt.Sprintf("%d of %d", failed, attempted))
	rep.add("torn_groups", float64(sum.torn), "count", "scans that saw a batch half applied")
	rep.add("space_amp", float64(retained)/w.dataBytes(), "ratio", "heap retained by the filled store / keys x (key + value) bytes")
	rep.add("space_amp_after_run", afterRun, "ratio", "the same after the run")
	rep.add("setup_s", stats.Median(setups), "s", fmt.Sprintf("open + fill, process CPU seconds, median of %d", len(setups)))
	return result{
		Correct:   failed == 0 && !w.readPathLost(st),
		Attempted: attempted,
		Failed:    failed,
	}
}

// symmetric reports whether every client ran the same operation mix,
// which is when a fairness index over their counts means anything.
func symmetric(clients []*client) bool {
	for _, c := range clients[1:] {
		for k := range c.kindOps {
			if (c.kindOps[k] > 0) != (clients[0].kindOps[k] > 0) {
				return false
			}
		}
	}
	return true
}

func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeCounters reads the allocation and CPU-class counters the
// per-layer allocation and GC metrics difference.
func runtimeCounters() [4]float64 {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var out [4]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runPerLayer(w *workload, seed uint64, seconds int, spanLog string, env map[string]string, rep *report) (result, error) {
	// Plain run: the reference throughput for the tracing overhead, and
	// the source of the allocation and GC figures, which the tracing
	// shims would only dilute.
	st := w.plainStats()
	s, _, _ := setup(w, func() sync.Locker { return w.buildLock(st) })
	rt0 := runtimeCounters()
	plainClients, plainCPU, _ := runPhase(w, s, seed, seconds, nil, nil)
	rt1 := runtimeCounters()
	plain := summarize(plainClients, plainCPU)
	checks, bad := verify(s, plainClients)
	lost := w.readPathLost(st)

	plainEp, tracedEp := census(w, seed, 2048)

	// Traced run, on the plain run's lock configuration behind timing
	// shims. The waiter sink, installed only now, is the pipeline's
	// lockstat where the workload has one and a stand-alone one where
	// it does not.
	tst := w.plainStats()
	sink := tst
	if sink == nil {
		sink = lockstat.New()
	}
	tr := new(tracer)
	ts, _, _ := setup(w, func() sync.Locker { return tr.wrap(w.buildLock(tst)) })
	var k0 kvstore.Stats
	var l0 lockstat.Snapshot
	restore := lockstat.InstallWaiterSink(sink)
	tracedClients, tracedCPU, runsMean := runPhase(w, ts, seed, seconds, tr, func() {
		k0, l0 = ts.Stats(), sink.Snapshot()
	})
	restore()
	k1, l1 := ts.Stats(), sink.Snapshot()
	traced := summarize(tracedClients, tracedCPU)
	tchecks, tbad := verify(ts, tracedClients)
	lost = lost || w.readPathLost(tst)

	lad, err := ladder(w.lockName)
	if err != nil {
		return result{}, err
	}
	if spanLog != "" {
		if err := tr.writeSpanLog(spanLog, env); err != nil {
			return result{}, err
		}
	}

	m := tr.merged()
	var ops uint64
	for k := range m.span {
		ops += m.span[k].n
	}
	lat := func(name string, h *hist, q float64) {
		rep.add(fmt.Sprintf("%s.p%.0f", name, q*100), h.quantile(q), "ns", fmt.Sprintf("n=%d", h.n))
	}
	// Exclusive acquisitions and contention come from the workload's
	// own lockstat when its pipeline has one, else from the shim.
	acq, contended, handovers := float64(m.acquire.n), float64(m.contended), float64(m.handovers)
	if tst != nil {
		acq = float64(l1.Acquisitions - l0.Acquisitions)
		contended, handovers = float64(l1.Contended-l0.Contended), float64(l1.Handovers-l0.Handovers)
	}
	allAcq := float64(m.acquire.n + m.rlock.n)
	var spanNs int64
	for k := range m.span {
		spanNs += m.span[k].sum
	}
	elapsed := float64(seconds)

	lat("lock.acquire_ns", &m.acquire, 0.5)
	lat("lock.acquire_ns", &m.acquire, 0.99)
	lat("lock.release_ns", &m.release, 0.5)
	rep.add("lock.wait_frac", ratio(float64(m.acquire.sum+m.rlock.sum), float64(spanNs)), "ratio", "acquire time / operation time")
	rep.add("lockstat.contended_frac", ratio(contended, acq), "ratio", fmt.Sprintf("of %.0f exclusive acquisitions", acq))
	rep.add("lockstat.handover_frac", ratio(handovers, acq), "ratio", "")
	rep.add("waiter.spins_per_acq", ratio(float64(l1.Spins-l0.Spins), allAcq), "count", fmt.Sprintf("of %.0f acquisitions", allAcq))
	rep.add("waiter.yields_per_acq", ratio(float64(l1.Yields-l0.Yields), allAcq), "count", "")
	rep.add("waiter.parks_per_acq", ratio(float64(l1.Parks-l0.Parks), allAcq), "count", "")
	rep.add("kvstore.lock_episodes_per_op", ratio(float64(m.totalEpisodes), float64(ops)), "count",
		fmt.Sprintf("census: plain %d, traced %d", plainEp, tracedEp))
	lat("kvstore.get.self_ns", &m.self[opGet], 0.5)
	lat("kvstore.get.self_ns", &m.self[opGet], 0.99)
	rep.add("kvstore.runs.mean", runsMean, "count", "frozen runs per shard, sampled at every window boundary")
	rep.add("kvstore.hit_ratio", ratio(float64(k1.Hits-k0.Hits), float64(k1.Gets-k0.Gets)), "ratio", "")
	lat("rwlock.rlock_ns", &m.rlock, 0.5)
	lat("rwlock.rlock_ns", &m.rlock, 0.99)
	for _, step := range ladderSteps {
		rep.add("registry.episode_ns."+step.name, lad[step.name], "ns", "T=1 Lock+Unlock on "+w.lockName)
	}
	lat("lock.hold_ns", &m.hold, 0.5)
	lat("lock.hold_ns", &m.hold, 0.99)
	lat("kvstore.put.self_ns", &m.self[opPut], 0.5)
	lat("kvstore.put.self_ns", &m.self[opPut], 0.99)
	rep.add("kvstore.freezes_per_s", float64(k1.Freezes-k0.Freezes)/elapsed, "1/s", "")
	rep.add("kvstore.compactions_per_s", float64(k1.Compactions-k0.Compactions)/elapsed, "1/s", "")
	lat("kvstore.write.self_ns", &m.self[opBatch], 0.5)
	lat("kvstore.write.self_ns", &m.self[opBatch], 0.99)
	rep.add("kvstore.write.stripes_per_batch", ratio(float64(m.batchEpisodes), float64(m.span[opBatch].n)), "count", "")
	lat("kvstore.iter.open_ns", &m.iterOpen, 0.5)
	lat("kvstore.iter.open_ns", &m.iterOpen, 0.99)
	lat("kvstore.iter.next_ns", &m.iterNext, 0.5)
	rep.add("kvstore.allocs_per_op", ratio(rt1[0]-rt0[0], float64(plain.ops)), "count", "plain run")
	rep.add("kvstore.alloc_bytes_per_op", ratio(rt1[1]-rt0[1], float64(plain.ops)), "B", "plain run")
	rep.add("runtime.gc_cpu_frac", ratio(rt1[2]-rt0[2], rt1[3]-rt0[3]), "ratio", "plain run")
	rep.add("kvstore.iter.torn_groups", float64(plain.torn), "count", "plain run")
	rep.add("trace.overhead_frac", 1-ratio(traced.opsPerCPU, plain.opsPerCPU), "ratio",
		fmt.Sprintf("ops per CPU second: plain %.6g, traced %.6g", plain.opsPerCPU, traced.opsPerCPU))
	if m.span[opGet].n == ops && ops > 0 {
		// Every lock call happened inside a Get, so the Get span must
		// equal its self time plus the lock calls the per-layer
		// histograms recorded.
		gap := m.span[opGet].mean() - m.self[opGet].mean() - float64(m.acquire.sum+m.release.sum)/float64(ops)
		rep.add("trace.get_identity_gap_ns", gap, "ns", "Get span - self - lock calls, per Get")
	}
	addLatencies(rep, "plain.", &plain)
	addLatencies(rep, "traced.", &traced)

	attempted := plain.ops + checks + traced.ops + tchecks
	failed := plain.failed + bad + traced.failed + tbad
	rep.add("failed_frac", float64(failed)/float64(attempted), "ratio", fmt.Sprintf("%d of %d", failed, attempted))
	return result{
		Correct:   failed == 0 && !lost && plainEp == tracedEp,
		Attempted: attempted,
		Failed:    failed,
	}, nil
}

// census replays the first n operations of every client stream one at
// a time on two fresh stores and counts the lock episodes they take:
// once through lockstat around the plain run's locks, once through the
// timing shim around the traced run's. Equal counts show the shim kept
// the store on the plain run's locking path.
func census(w *workload, seed uint64, n int) (plain, traced int64) {
	st := lockstat.New()
	ps := w.open(func() sync.Locker { return lockstat.Wrap(w.buildLock(w.plainStats()), st) })
	tr := new(tracer)
	tr.slots[0].g, tr.slots[0].on = getg(), true
	ts := w.open(func() sync.Locker { return tr.wrap(w.buildLock(w.plainStats())) })
	for _, s := range []kvstore.Store{ps, ts} {
		for c := 0; c < numClients; c++ {
			cl := newClient(w, seed, c, 0, nil)
			for i := 0; i < n; i++ {
				o := cl.gen.next()
				cl.prepare(o)
				cl.exec(s, o)
			}
		}
	}
	snap := st.Snapshot()
	return int64(snap.Acquisitions + snap.RLocks), tr.slots[0].episodes
}
