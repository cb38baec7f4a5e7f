package kvstore

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/rwlock"
)

// A schedule search over the real store code, in the spirit of CHESS
// (Musuvathi et al., OSDI 2008). Client goroutines run one at a time:
// each runs until its next preemption point and hands control back to
// the scheduler, which picks the next client from a choice the shared
// search core (internal/explore) supplies. The store's locks are
// scheduling locks, so the interleaving of every acquisition, release
// and client operation is a pure function of the choices, and the
// search enumerates them all.
//
// Preemption points sit before every Lock and RLock, after every
// release, and between client operations (each iterator Next is one).
// A client waiting on a held lock is not ready; a run whose unfinished
// clients are all not ready is a deadlock. The search runs with no
// independence relation: Get's search and the iterator read the
// memtable outside any lock, so a relation keyed on lock footprints
// would prune real interleavings.

// schedLock is the store lock under the search. Only the running
// client touches it, so its state needs no synchronization: a client
// names the lock it wants at a preemption point and is scheduled only
// once the lock admits it. Readers share; a writer excludes everyone.
type schedLock struct {
	r       *runner
	writer  bool
	readers int
}

var _ rwlock.RWLocker = (*schedLock)(nil)

func (l *schedLock) Lock() {
	l.r.pause(l, false)
	l.writer = true
}

func (l *schedLock) Unlock() {
	l.writer = false
	l.r.pause(nil, false)
}

func (l *schedLock) RLock() {
	l.r.pause(l, true)
	l.readers++
}

func (l *schedLock) RUnlock() {
	l.readers--
	l.r.pause(nil, false)
}

// client is one scheduled goroutine.
type client struct {
	resume chan bool  // true: run to the next preemption point; false: exit
	want   *schedLock // the lock the client waits to take; nil when none
	shared bool       // want is a read acquisition
	done   bool
}

func (c *client) ready() bool {
	return !c.done && (c.want == nil || !c.want.writer && (c.shared || c.want.readers == 0))
}

// runner schedules one run's clients. Control passes by channel
// handoff, so exactly one of the scheduler and the clients runs at a
// time and every field is ordered by the handoffs.
type runner struct {
	clients []*client
	cur     *client
	yielded chan struct{} // a client reached a preemption point or exited
	wg      sync.WaitGroup
	panic   error // a client panicked
}

// pause is a preemption point of the running client: it hands control
// back, asking for want (shared or exclusive) when want is non-nil.
func (r *runner) pause(want *schedLock, shared bool) {
	c := r.cur
	c.want, c.shared = want, shared
	r.yielded <- struct{}{}
	if !<-c.resume {
		runtime.Goexit()
	}
	c.want = nil
}

// yield is the preemption point between client operations.
func (r *runner) yield() { r.pause(nil, false) }

// spawn starts a client that runs body once first scheduled.
func (r *runner) spawn(body func()) {
	c := &client{resume: make(chan bool)}
	id := len(r.clients)
	r.clients = append(r.clients, c)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				r.panic = fmt.Errorf("client %d panicked: %v", id, p)
			}
			c.done = true
			r.yielded <- struct{}{}
		}()
		if !<-c.resume {
			runtime.Goexit()
		}
		body()
	}()
}

// schedule runs the clients to completion under choose. It reports
// the ids of the clients left blocked when no client is ready, and
// ok=false when choose abandoned the run or a client panicked.
func (r *runner) schedule(choose func(ready []int) int) (blocked []int, ok bool) {
	for {
		var ready []int
		blocked = blocked[:0]
		for i, c := range r.clients {
			switch {
			case c.ready():
				ready = append(ready, i)
			case !c.done:
				blocked = append(blocked, i)
			}
		}
		if len(ready) == 0 {
			return blocked, true
		}
		j := choose(ready)
		if j < 0 {
			return nil, false
		}
		r.cur = r.clients[ready[j]]
		r.cur.resume <- true
		<-r.yielded
		if r.panic != nil {
			return nil, false
		}
	}
}

// stop ends every unfinished client and waits for all of them, so no
// client outlives its run, whether it finished, deadlocked or was
// abandoned.
func (r *runner) stop() {
	for _, c := range r.clients {
		if !c.done {
			c.resume <- false
			<-r.yielded
		}
	}
	r.wg.Wait()
}

// kvProgram is a search target: a fresh store per run, writer clients
// that each apply batches over every key, and scanner clients that
// each take one snapshot and read it to the end. Every batch writes
// the same value to all keys, so the Store contract — atomic batches,
// snapshot iterators — means a scan sees either no key or every key,
// all at one batch's value.
type kvProgram struct {
	shards   int // 0: a coarse DB; otherwise a ShardedDB with this many shards
	keys     [][]byte
	batches  int                   // batches per writer
	writers  []func(Store, *Batch) // one writer client per entry
	scanners int                   // scanner clients
	snapshot func(Store) *Iterator // a scanner's iterator: Store.NewIterator or a mutant
	// violation is the last run's violation, nil after a clean run.
	violation error
}

func (p *kvProgram) open(r *runner) Store {
	mk := func() sync.Locker { return &schedLock{r: r} }
	if p.shards == 0 {
		return Open(Options{Lock: mk()})
	}
	return OpenSharded(ShardedOptions{Shards: p.shards, NewLock: mk})
}

// run is the explore.Run of the program.
func (p *kvProgram) run(choose func(ready []int) int) (bool, error) {
	p.violation = nil
	r := &runner{yielded: make(chan struct{})}
	defer r.stop()
	st := p.open(r)
	var torn error
	for w, write := range p.writers {
		r.spawn(func() {
			for i := 0; i < p.batches; i++ {
				if i > 0 {
					r.yield()
				}
				var b Batch
				for _, k := range p.keys {
					b.Put(k, fmt.Appendf(nil, "w%db%d", w, i))
				}
				write(st, &b)
			}
		})
	}
	for s := 0; s < p.scanners; s++ {
		id := len(p.writers) + s
		r.spawn(func() {
			it := p.snapshot(st)
			var seen []string
			for it.Next() {
				seen = append(seen, string(it.Key())+"="+string(it.Value()))
				r.yield()
			}
			if torn == nil && !oneVersion(seen, len(p.keys)) {
				torn = fmt.Errorf("torn scan by client %d: [%s]", id, strings.Join(seen, " "))
			}
		})
	}
	blocked, ok := r.schedule(choose)
	switch {
	case r.panic != nil:
		return false, r.panic
	case !ok:
		return false, nil
	case len(blocked) > 0:
		p.violation = fmt.Errorf("deadlock: clients %v blocked on held locks", blocked)
	default:
		p.violation = torn
	}
	return p.violation != nil, nil
}

// oneVersion reports whether a scan's key=value entries show no key or
// all n keys, every one at the same value.
func oneVersion(seen []string, n int) bool {
	if len(seen) == 0 {
		return true
	}
	if len(seen) != n {
		return false
	}
	_, v, _ := strings.Cut(seen[0], "=")
	for _, e := range seen[1:] {
		if _, w, _ := strings.Cut(e, "="); w != v {
			return false
		}
	}
	return true
}

// exploreKeys returns n readable keys; on a ShardedDB with shards
// shards they must span every shard, or no batch would cross shards.
func exploreKeys(t *testing.T, n, shards int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	hit := make([]bool, max(shards, 1))
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "k%d", i)
		if shards > 0 {
			hit[shardIndex(keys[i], shards)] = true
		}
	}
	if shards > 0 && slices.Contains(hit, false) {
		t.Fatalf("keys %s miss a shard of %d", keys, shards)
	}
	return keys
}

// exploreStore is the clean program: one writer × 2 batches over 4
// keys beside one scanner.
func exploreStore(t *testing.T, shards int) *kvProgram {
	return &kvProgram{
		shards:   shards,
		keys:     exploreKeys(t, 4, shards),
		batches:  2,
		writers:  []func(Store, *Batch){Store.Write},
		scanners: 1,
		snapshot: Store.NewIterator,
	}
}

// searchAll runs an exhaustive search of p.
func searchAll(t *testing.T, p *kvProgram) *explore.Result {
	t.Helper()
	res, err := explore.Search(explore.Options{Delays: explore.Unbounded, Budget: -1}, p.run, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExploreVerifiesStores: on the real store code every schedule of
// a writer beside a scanner keeps batches atomic to the scan, for the
// coarse DB and for a 2-shard ShardedDB whose batches cross shards.
func TestExploreVerifiesStores(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"DB", 0}, {"ShardedDB-2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			p := exploreStore(t, tc.shards)
			res := searchAll(t, p)
			if !res.Verified() {
				t.Fatalf("not VERIFIED: %+v (violation %v, schedule %s)",
					res, p.violation, explore.FormatSchedule(res.Schedule))
			}
			t.Logf("VERIFIED: %d schedules, %d branch points", res.Stats.Schedules, res.Stats.Branches)
		})
	}
}

// hunt is the mutation-hunt pattern: the search must catch p's planted
// bug with a violation containing want, shrink the failing schedule to
// a strictly shorter one, and replay the shrunk schedule to the same
// violation.
func hunt(t *testing.T, p *kvProgram, want string) {
	t.Helper()
	res := searchAll(t, p)
	if !res.Failed || p.violation == nil || !strings.Contains(p.violation.Error(), want) {
		t.Fatalf("search missed the mutant: %+v (violation %v)", res.Stats, p.violation)
	}
	found := p.violation.Error()
	t.Logf("caught after %d schedules: %s (schedule %s)", res.Stats.Schedules, found, explore.FormatSchedule(res.Schedule))

	fails := func(sched []int) bool {
		failed, err := explore.Replay(p.run, sched)
		return err == nil && failed && p.violation.Error() == found
	}
	shrunk := explore.Shrink(res.Schedule, fails)
	if len(shrunk) >= len(res.Schedule) {
		t.Fatalf("shrinker kept all of %v (got %v)", res.Schedule, shrunk)
	}
	if failed, err := explore.Replay(p.run, shrunk); err != nil || !failed || p.violation.Error() != found {
		t.Fatalf("shrunk schedule %v replays to %v (err %v), want %q", shrunk, p.violation, err, found)
	}
	t.Logf("shrunk to %s", explore.FormatSchedule(shrunk))
}

// TestExploreHuntUnstampedSnapshot reverts the memtable stamping: a
// snapshot that reads the memtable at its newest version sees a batch
// that lands between two of its Next calls.
func TestExploreHuntUnstampedSnapshot(t *testing.T) {
	p := exploreStore(t, 0)
	p.snapshot = func(st Store) *Iterator {
		it := st.NewIterator()
		for i := range it.m.src {
			if it.m.src[i].mem != nil {
				it.m.src[i].snap = math.MaxUint64
			}
		}
		return it
	}
	hunt(t, p, "torn scan")
}

// TestExploreHuntPerShardWrite applies a cross-shard batch shard by
// shard, each under only its own lock: a snapshot taken between two
// shards' applies sees half the batch.
func TestExploreHuntPerShardWrite(t *testing.T) {
	p := exploreStore(t, 2)
	p.writers = []func(Store, *Batch){func(st Store, b *Batch) {
		s := st.(*ShardedDB)
		ops, bounds, touched := s.groupByShard(b)
		for _, si := range touched {
			s.shards[si].mu.Lock()
			s.shards[si].applyLocked(b.rep, ops[bounds[si]:bounds[si+1]])
			s.shards[si].mu.Unlock()
		}
	}}
	hunt(t, p, "torn scan")
}

// writeDescending is the ordering mutant: it takes the batch's stripes
// in descending shard order, bypassing lockSet's canonical-order check.
func writeDescending(st Store, b *Batch) {
	s := st.(*ShardedDB)
	ops, bounds, touched := s.groupByShard(b)
	for i := len(touched) - 1; i >= 0; i-- {
		s.table.write[touched[i]].Lock()
	}
	for _, si := range touched {
		s.shards[si].applyLocked(b.rep, ops[bounds[si]:bounds[si+1]])
	}
	s.table.write.unlockSet(touched)
}

// descendingBeside runs a descending-order batch beside an ascending
// Write, one batch each: each can take its first stripe and wait
// forever on the other's.
func descendingBeside(t *testing.T) *kvProgram {
	p := exploreStore(t, 2)
	p.batches, p.scanners = 1, 0
	p.writers = []func(Store, *Batch){Store.Write, writeDescending}
	return p
}

func TestExploreHuntDescendingStripes(t *testing.T) {
	hunt(t, descendingBeside(t), "deadlock")
}

// TestExploreRunLeavesNoClients: no client goroutine outlives a run
// that completes, violates or is abandoned.
func TestExploreRunLeavesNoClients(t *testing.T) {
	base := runtime.NumGoroutine()
	abandonAt := func(n int) func([]int) int {
		return func([]int) int {
			if n--; n < 0 {
				return -1
			}
			return 0
		}
	}
	for _, tc := range []struct {
		name   string
		p      *kvProgram
		choose func([]int) int
	}{
		{"complete", exploreStore(t, 2), explore.FixedSchedule[int](nil)},
		{"deadlock", descendingBeside(t), explore.FixedSchedule[int]([]int{0, 1, 0, 1})},
		{"abandoned", exploreStore(t, 2), abandonAt(5)},
	} {
		if _, err := tc.p.run(tc.choose); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "deadlock" && tc.p.violation == nil {
			t.Fatalf("deadlock schedule ran clean")
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive the run (%d before)", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
