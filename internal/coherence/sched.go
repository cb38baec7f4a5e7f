package coherence

import (
	"fmt"
	"runtime"

	"repro/internal/xrand"
)

// CostModel assigns cycle costs to memory events for the timed
// scheduling mode. The defaults approximate the relative costs the
// paper reasons with: local hits are cheap, coherence misses dominate,
// misses homed on a remote NUMA node cost more still (§6 "Maximum
// Remote Misses", Intel UPI discussion), and S→M upgrades fall in
// between.
type CostModel struct {
	Hit        uint64
	Miss       uint64
	RemoteMiss uint64
	Upgrade    uint64
	// BusOccupancy is the interconnect serialization cost of one
	// coherence transaction (miss or upgrade) in timed mode. Every
	// transaction holds the bus for this long, so invalidation storms
	// — e.g. T spinners re-reading a granted ticket word — delay the
	// critical-path handoff miss behind them. This bandwidth term is
	// what makes global-spinning locks collapse under contention, the
	// central phenomenon of Figure 1.
	BusOccupancy uint64
}

// DefaultCosts is a reasonable commodity-server cost model. Note the
// S→M upgrade is priced close to a full miss: with remote sharers an
// upgrade still pays the invalidation round trip; the data-free
// discount is small (truly private upgrades go E→M silently and cost
// a hit).
var DefaultCosts = CostModel{Hit: 1, Miss: 40, RemoteMiss: 90, Upgrade: 34, BusOccupancy: 16}

// Mode selects how the scheduler interleaves threads.
type Mode int

const (
	// RoundRobin grants one operation to each runnable thread in
	// turn: fully deterministic, used for admission-schedule and
	// invalidation-count experiments.
	RoundRobin Mode = iota
	// Timed is a discrete-event mode: the thread with the smallest
	// local clock runs next and its clock advances by the cost of the
	// event it performed. Used for throughput-shape experiments.
	Timed
	// Random picks the next thread with a seeded PRNG: a determinism-
	// preserving way to explore interleavings in stress tests.
	Random
)

// Ctx is a simulated thread's handle onto the system. Every memory
// operation is one scheduling step: the thread reports the operation's
// footprint (an Op) and waits until the scheduler picks it, so every
// interleaving decision is the scheduler's.
type Ctx struct {
	CPU   int
	sched *Scheduler
	t     *thread
}

// Op is the footprint a simulated thread reports before each
// operation: the cache line the operation touches and whether it may
// write it. Schedulers that pick by footprint (RunChosen) see the op
// of every runnable thread.
type Op struct {
	Thread int
	// Line is the first word address of the touched cache line; 0
	// for a step that touches no line (Work, a body's return).
	Line Addr
	// Write marks stores and every read-modify-write, including a
	// CAS that fails.
	Write bool
}

// eventKind classifies one operation for the cost model.
type eventKind uint8

const (
	evHit eventKind = iota
	evMiss
	evRemoteMiss
	evUpgrade
	evWork
)

type opResult struct {
	kind   eventKind
	cycles uint64 // used by evWork
	wrote  Addr   // nonzero if the op wrote this line (wake trigger)
	block  Addr   // nonzero: park until this line is next written
	// blockUnless, if set, is evaluated against the line's current
	// value at registration time (atomically with the scheduling
	// step): when it reports true the park is skipped. This closes
	// the monitor-arming race — a write landing between a caller's
	// last observation and the park cannot be missed.
	blockUnless func(uint64) bool
}

// thread is one simulated thread. Its goroutine and the scheduler
// hand the turn back and forth over resume and yield, so exactly one
// of them runs at a time.
type thread struct {
	id     int
	resume chan struct{} // closed to release the goroutine early
	// yield hands the turn back to the scheduler: nil once the
	// thread has reported its next op (or returned), else the value
	// its body panicked with.
	yield     chan any
	op        Op   // what the thread does when next stepped
	exited    bool // body returned: the next step only marks it finished
	finished  bool
	blockedOn Addr // nonzero: parked until this line is written
	// resumeOnWake marks a thread parked mid-body (AwaitWrite): its
	// next op is unknown until a wake lets it run on.
	resumeOnWake bool
}

func (t *thread) runnable() bool { return !t.finished && t.blockedOn == 0 }

// Scheduler coordinates simulated threads over a System.
type Scheduler struct {
	sys      *System
	mode     Mode
	costs    CostModel
	seed     uint64
	maxSteps uint64

	threads []*thread
	live    int       // threads not yet finished
	parked  int       // threads blocked on a line
	woken   []*thread // AwaitWrite parkers a write released, not yet resumed
	ready   []Op      // readyOps' buffer

	clocks     []uint64
	busFreeAt  uint64
	episodes   []uint64
	admissions []int
	steps      uint64

	// Trace, when non-nil, receives every memory operation as it
	// executes (deterministically ordered). Used by the §4 scenario
	// narrator and for debugging simulated locks.
	Trace func(cpu int, op string, a Addr, value uint64)
}

// NewScheduler creates a scheduler over sys. maxSteps bounds the total
// operation count (0 selects a large default); exceeding it panics,
// which converts livelock bugs into test failures.
func NewScheduler(sys *System, mode Mode, costs CostModel, seed uint64, maxSteps uint64) *Scheduler {
	if maxSteps == 0 {
		maxSteps = 200_000_000
	}
	return &Scheduler{
		sys:      sys,
		mode:     mode,
		costs:    costs,
		seed:     seed,
		maxSteps: maxSteps,
		clocks:   make([]uint64, sys.CPUs()),
		episodes: make([]uint64, sys.CPUs()),
	}
}

// Result summarizes one simulation run.
type Result struct {
	// Episodes counts completed lock episodes per thread.
	Episodes []uint64
	// Admissions is the order in which threads acquired the lock.
	Admissions []int
	// Clock is the final global clock (timed mode: max thread clock).
	Clock uint64
	// Steps is the total number of operations performed.
	Steps uint64
	// Stats holds final per-CPU coherence counters.
	Stats []CPUStats
}

// Throughput returns episodes per kilocycle (timed mode).
func (r Result) Throughput() float64 {
	if r.Clock == 0 {
		return 0
	}
	total := uint64(0)
	for _, e := range r.Episodes {
		total += e
	}
	return float64(total) / float64(r.Clock) * 1000
}

// TotalEpisodes sums per-thread episode counts.
func (r Result) TotalEpisodes() uint64 {
	total := uint64(0)
	for _, e := range r.Episodes {
		total += e
	}
	return total
}

// Run executes body once per CPU as a simulated thread and returns the
// aggregated result. It is deterministic for a given (mode, seed,
// body). A deadlock, a livelock past maxSteps, or a panic in body
// panics in the caller's goroutine.
func (s *Scheduler) Run(body func(c *Ctx)) Result {
	s.run(body, s.pickByMode())
	return s.result()
}

// RunChosen is Run with the interleaving left to choose: before every
// step it is offered the op of each runnable thread, in thread order,
// and returns the index of the one to execute (a body's return is
// taken without asking). A negative index abandons the run, whose
// result is then partial. A deadlock, a livelock past maxSteps, or a
// panic in body ends the run and comes back as the error. Either way
// no simulated thread outlives the call.
func (s *Scheduler) RunChosen(body func(c *Ctx), choose func(ready []Op) int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = s.result(), fmt.Errorf("%v", r)
		}
	}()
	s.run(body, func() int {
		ready := s.readyOps()
		// A returned body touches nothing: finish it without offering
		// a choice, so the search never branches on it.
		for _, op := range ready {
			if s.threads[op.Thread].exited {
				return op.Thread
			}
		}
		if j := choose(ready); j >= 0 {
			return ready[j].Thread
		}
		return -1
	})
	return s.result(), nil
}

// run drives one simulated thread per CPU until every body returns.
// next picks the runnable thread to step (one exists whenever it is
// called), or returns -1 to abandon the run. Whatever ends the run,
// the threads still blocked are released.
func (s *Scheduler) run(body func(c *Ctx), next func() int) {
	bodies := make([]func(*Ctx), s.sys.CPUs())
	for i := range bodies {
		bodies[i] = body
	}
	defer s.stop()
	s.start(bodies)
	for s.live > 0 {
		if s.parked == s.live {
			panic(s.deadlock())
		}
		i := next()
		if i < 0 {
			return
		}
		s.step(s.threads[i])
	}
}

// pickByMode returns the mode's interleaving policy.
func (s *Scheduler) pickByMode() func() int {
	switch s.mode {
	case Timed:
		// The thread with the smallest clock runs next.
		return func() int {
			pick := -1
			for i, t := range s.threads {
				if t.runnable() && (pick < 0 || s.clocks[i] < s.clocks[pick]) {
					pick = i
				}
			}
			return pick
		}
	case Random:
		rng := xrand.NewXorShift64(s.seed | 1)
		return func() int {
			for {
				if i := rng.Intn(len(s.threads)); s.threads[i].runnable() {
					return i
				}
			}
		}
	default: // RoundRobin
		rr := 0
		return func() int {
			n := len(s.threads)
			for k := 0; ; k++ {
				if i := (rr + k) % n; s.threads[i].runnable() {
					rr = i + 1
					return i
				}
			}
		}
	}
}

// start launches one simulated thread per body and lets each run up
// to its first op.
func (s *Scheduler) start(bodies []func(c *Ctx)) {
	s.threads = make([]*thread, 0, len(bodies))
	s.live, s.parked = len(bodies), 0
	for i, body := range bodies {
		t := &thread{id: i, resume: make(chan struct{}), yield: make(chan any)}
		s.threads = append(s.threads, t)
		ctx := &Ctx{CPU: i, sched: s, t: t}
		go func() {
			defer func() {
				// A nil recover is runtime.Goexit from stop.
				if r := recover(); r != nil {
					t.yield <- r
				}
			}()
			body(ctx)
			t.op = Op{Thread: t.id}
			t.exited = true
			t.yield <- nil
		}()
		s.await(t)
	}
}

// stop releases every simulated thread that has not finished.
func (s *Scheduler) stop() {
	for _, t := range s.threads {
		if !t.finished {
			t.finished = true
			close(t.resume)
		}
	}
}

// await blocks until t hands the turn back, re-raising a panic from
// its body in the caller's goroutine.
func (s *Scheduler) await(t *thread) {
	if r := <-t.yield; r != nil {
		t.finished = true
		panic(r)
	}
}

// readyOps lists the op of every runnable thread, in thread order.
// The slice is reused by the next call.
func (s *Scheduler) readyOps() []Op {
	s.ready = s.ready[:0]
	for _, t := range s.threads {
		if t.runnable() {
			s.ready = append(s.ready, t.op)
		}
	}
	return s.ready
}

// deadlock describes a run in which every live thread is parked on a
// line nobody will write.
func (s *Scheduler) deadlock() string {
	blocked := []string{}
	for _, t := range s.threads {
		if !t.finished {
			blocked = append(blocked, fmt.Sprintf("cpu%d on %q", t.id, s.sys.Name(t.blockedOn)))
		}
	}
	return fmt.Sprintf("coherence: deadlock — all live threads parked (%v)", blocked)
}

// step executes runnable thread t's reported op — the one step every
// driver (Run, RunChosen, Stepper) takes. The thread settles the op's
// bookkeeping itself (settle) and runs on to its next op; AwaitWrite
// parkers the op woke then run on to theirs.
func (s *Scheduler) step(t *thread) {
	if t.exited {
		t.finished = true
		s.live--
		return
	}
	t.resume <- struct{}{}
	s.await(t)
	s.resumeWoken()
}

// resumeWoken lets every AwaitWrite parker a write released continue
// its body up to its next op.
func (s *Scheduler) resumeWoken() {
	for _, w := range s.woken {
		w.resume <- struct{}{}
		s.await(w)
	}
	s.woken = s.woken[:0]
}

// settle is the bookkeeping of one executed op: count the step (the
// livelock guard), charge its cost, park the thread if the op asks,
// and wake every thread parked on a line it wrote. It runs on the
// stepping thread's goroutine before its body continues, so code
// between two ops reads a clock that already includes the first.
func (s *Scheduler) settle(t *thread, res opResult) {
	s.steps++
	if s.steps > s.maxSteps {
		panic(fmt.Sprintf("coherence: exceeded %d steps — livelock?", s.maxSteps))
	}
	s.advanceClock(t.id, res)
	if res.block != 0 {
		if res.blockUnless == nil || !res.blockUnless(s.sys.Peek(res.block)) {
			t.blockedOn = res.block
			s.parked++
		}
	}
	if res.wrote != 0 {
		s.wake(res.wrote, t)
	}
}

// wake unparks every thread blocked on the written address's *line* —
// a write to any word of the line invalidates a spinner's copy,
// forcing a re-read even when the watched word is untouched (false
// sharing). In timed mode a woken thread's clock catches up with the
// writer's: its re-read cannot begin before the write completed.
// writer is nil for a harness write (Stepper.Poke).
func (s *Scheduler) wake(a Addr, writer *thread) {
	ln := s.sys.lineOf(a)
	for _, w := range s.threads {
		if w.blockedOn != 0 && s.sys.lineOf(w.blockedOn) == ln {
			w.blockedOn = 0
			s.parked--
			if w.resumeOnWake {
				w.resumeOnWake = false
				s.woken = append(s.woken, w)
			}
			if writer != nil && s.mode == Timed && s.clocks[w.id] < s.clocks[writer.id] {
				s.clocks[w.id] = s.clocks[writer.id]
			}
		}
	}
}

func (s *Scheduler) result() Result {
	clock := uint64(0)
	for _, c := range s.clocks {
		if c > clock {
			clock = c
		}
	}
	stats := make([]CPUStats, s.sys.CPUs())
	for i := range stats {
		stats[i] = s.sys.Stats(i)
	}
	return Result{
		Episodes:   append([]uint64(nil), s.episodes...),
		Admissions: append([]int(nil), s.admissions...),
		Clock:      clock,
		Steps:      s.steps,
		Stats:      stats,
	}
}

// advanceClock applies the cost model to one event in timed mode
// (round-robin and random modes keep clocks for reporting but use
// uniform unit costs).
func (s *Scheduler) advanceClock(cpu int, res opResult) {
	if s.mode != Timed {
		s.clocks[cpu]++
		return
	}
	m := s.costs
	switch res.kind {
	case evWork:
		s.clocks[cpu] += res.cycles
	case evHit:
		s.clocks[cpu] += m.Hit
	default:
		// Coherence transaction: serialize on the bus, then pay the
		// latency.
		var lat uint64
		switch res.kind {
		case evRemoteMiss:
			lat = m.RemoteMiss
		case evUpgrade:
			lat = m.Upgrade
		default:
			lat = m.Miss
		}
		start := s.clocks[cpu]
		if s.busFreeAt > start {
			start = s.busFreeAt
		}
		s.busFreeAt = start + m.BusOccupancy
		s.clocks[cpu] = start + lat
	}
}

// do performs one operation as one scheduling step: report op, wait to
// be picked, execute, settle.
func (c *Ctx) do(op Op, exec func() opResult) {
	c.t.op = op
	c.handBack()
	c.sched.settle(c.t, exec())
}

// handBack yields the turn and waits for it to come back; a released
// thread (Scheduler.stop) exits here.
func (c *Ctx) handBack() {
	c.t.yield <- nil
	if _, ok := <-c.t.resume; !ok {
		runtime.Goexit()
	}
}

// footprint is the Op for an access to a.
func (c *Ctx) footprint(a Addr, write bool) Op {
	sys := c.sched.sys
	return Op{Thread: c.CPU, Line: sys.lineOf(a)*sys.wpl + 1, Write: write}
}

// classify converts the delta of the CPU's counters across one
// operation into an event class.
func (c *Ctx) classify(before CPUStats) eventKind {
	after := c.sched.sys.Stats(c.CPU)
	switch {
	case after.RemoteMiss > before.RemoteMiss:
		return evRemoteMiss
	case after.LoadMisses > before.LoadMisses || after.StoreMisses > before.StoreMisses:
		return evMiss
	case after.Upgrades > before.Upgrades:
		return evUpgrade
	default:
		return evHit
	}
}

func (c *Ctx) trace(op string, a Addr, v uint64) {
	if c.sched.Trace != nil {
		c.sched.Trace(c.CPU, op, a, v)
	}
}

// write performs one write-class op on a: rmw runs it against the
// system, and the op wakes threads parked on a's line.
func (c *Ctx) write(a Addr, rmw func()) {
	c.do(c.footprint(a, true), func() opResult {
		before := c.sched.sys.Stats(c.CPU)
		rmw()
		return opResult{kind: c.classify(before), wrote: a}
	})
}

// Load performs a coherent read.
func (c *Ctx) Load(a Addr) (v uint64) {
	c.do(c.footprint(a, false), func() opResult {
		before := c.sched.sys.Stats(c.CPU)
		v = c.sched.sys.Load(c.CPU, a)
		c.trace("load", a, v)
		return opResult{kind: c.classify(before)}
	})
	return v
}

// Store performs a coherent write.
func (c *Ctx) Store(a Addr, v uint64) {
	c.write(a, func() {
		c.sched.sys.Store(c.CPU, a, v)
		c.trace("store", a, v)
	})
}

// Swap performs an atomic exchange.
func (c *Ctx) Swap(a Addr, v uint64) (old uint64) {
	c.write(a, func() {
		old = c.sched.sys.Swap(c.CPU, a, v)
		c.trace("swap", a, v)
	})
	return old
}

// CAS performs an atomic compare-and-swap.
func (c *Ctx) CAS(a Addr, old, new uint64) (ok bool) {
	c.write(a, func() {
		ok = c.sched.sys.CAS(c.CPU, a, old, new)
		if ok {
			c.trace("cas-ok", a, new)
		} else {
			c.trace("cas-fail", a, old)
		}
	})
	return ok
}

// FetchAdd performs an atomic fetch-and-add.
func (c *Ctx) FetchAdd(a Addr, d uint64) (old uint64) {
	c.write(a, func() {
		old = c.sched.sys.FetchAdd(c.CPU, a, d)
		c.trace("fetchadd", a, old)
	})
	return old
}

// Work consumes local computation cycles without touching memory
// (critical/non-critical section bodies).
func (c *Ctx) Work(cycles uint64) {
	c.do(Op{Thread: c.CPU}, func() opResult { return opResult{kind: evWork, cycles: cycles} })
}

// AwaitWrite parks the thread until line a is next written, without
// reading the line — the MONITOR/MWAIT (Intel) / WFE (ARM) idiom the
// paper's §10 discusses: arm a monitor on the line and sleep until its
// invalidation arrives. ready is evaluated against the line's current
// value atomically with arming: if it already holds, the park is
// skipped (the hardware analog: MWAIT falls through when the armed
// line was touched since MONITOR). No coherence event is charged for
// the wait itself; callers typically follow with an atomic exchange to
// claim the value, avoiding the load+upgrade pair of a classic spin.
// Its footprint is a read of a: the ready check observes the line.
func (c *Ctx) AwaitWrite(a Addr, ready func(uint64) bool) {
	c.do(c.footprint(a, false), func() opResult {
		return opResult{kind: evHit, block: a, blockUnless: ready}
	})
	if c.t.blockedOn != 0 {
		// Parked: the body continues only once a write wakes it.
		c.t.resumeOnWake = true
		c.handBack()
	}
}

// SpinUntil busy-waits on line a until pred holds for its value, and
// returns the satisfying value. A parked spinner's next op is already
// known — the re-read — so it reports it at once and a wake only makes
// it runnable again. Semantically it is a polite spin loop:
// while the line stays valid in our cache the spin costs nothing; when
// the value disappoints, the thread parks and is woken by the next
// write to the line, paying one coherence re-read per wakeup — exactly
// the cost pattern of hardware spinning, without simulating millions
// of idle loop iterations. A park with no future writer is reported as
// a deadlock by the scheduler, converting lost-wakeup bugs in
// simulated locks into immediate failures.
func (c *Ctx) SpinUntil(a Addr, pred func(uint64) bool) uint64 {
	for {
		var v uint64
		var ok bool
		c.do(c.footprint(a, false), func() opResult {
			before := c.sched.sys.Stats(c.CPU)
			v = c.sched.sys.Load(c.CPU, a)
			res := opResult{kind: c.classify(before)}
			if ok = pred(v); !ok {
				res.block = a // park until the line is next written
			}
			return res
		})
		if ok {
			return v
		}
	}
}

// Admit records that this thread just acquired the lock (admission-
// order tracing for the §9 experiments).
func (c *Ctx) Admit() {
	c.sched.admissions = append(c.sched.admissions, c.CPU)
}

// Episode records completion of one acquire/CS/release episode.
func (c *Ctx) Episode() {
	c.sched.episodes[c.CPU]++
}

// Clock reports this thread's local clock (timed mode).
func (c *Ctx) Clock() uint64 { return c.sched.clocks[c.CPU] }

// System exposes the underlying system (for allocation in lock
// constructors).
func (s *Scheduler) System() *System { return s.sys }
