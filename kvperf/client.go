package main

import (
	"bytes"
	"sync"
	"syscall"
	"time"

	"repro/internal/kvstore"
	"repro/internal/stats"
)

// Every run warms up before its windows start, so lazy set-up and cold
// caches are not timed. Each window yields one throughput and one
// latency-percentile sample; the reported figure is their median, which
// a short burst from a neighbouring process cannot move.
const (
	warmup = time.Second
	window = 500 * time.Millisecond
)

var epoch = time.Now()

// now reads the monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// client is one closed-loop client: it prepares an operation's inputs,
// times the store call alone, then checks the outputs.
type client struct {
	id  int
	gen *generator
	ct  *clientTrace // nil outside the traced run

	key   [16]byte
	val   [valueSize]byte
	batch kvstore.Batch
	seq   uint64
	// groupVer is the batch writer's last version per group.
	groupVer []uint64

	got          []byte
	found        bool
	scanK, scanV [][]byte

	ops     uint64 // all operations, warm-up included
	kindOps [numKinds]uint64
	winOps  []uint64
	winLat  [][numKinds]*hist
	failed  uint64
	torn    uint64
}

func newClient(w *workload, seed uint64, id, windows int, ct *clientTrace) *client {
	return &client{
		id: id, gen: newGenerator(w, seed, id), ct: ct,
		groupVer: make([]uint64, w.keys/groupSize),
		winOps:   make([]uint64, windows),
		winLat:   make([][numKinds]*hist, windows),
	}
}

// version makes every write of every client distinct.
func (c *client) version() uint64 {
	c.seq++
	return uint64(c.id+1)<<48 | c.seq
}

// prepare encodes op o's inputs; it is not timed.
func (c *client) prepare(o op) {
	switch o.kind {
	case opGet, opScan:
		putKey(&c.key, o.id)
	case opPut:
		putKey(&c.key, o.id)
		putValue(&c.val, o.id, c.version())
	case opBatch:
		ver := c.version()
		c.batch.Reset()
		for i := uint32(0); i < groupSize; i++ {
			id := o.id*groupSize + i
			putKey(&c.key, id)
			putValue(&c.val, id, ver)
			c.batch.Put(c.key[:], c.val[:])
		}
		c.groupVer[o.id] = ver
	}
}

// exec makes the store call for o.
func (c *client) exec(s kvstore.Store, o op) {
	switch o.kind {
	case opGet:
		c.got, c.found = s.Get(c.key[:])
	case opPut:
		s.Put(c.key[:], c.val[:])
	case opBatch:
		s.Write(&c.batch)
	case opScan:
		c.scan(s)
	}
}

// scan opens an iterator, seeks to the prepared key and takes up to
// scanLen entries. The traced run times the open and every Next.
func (c *client) scan(s kvstore.Store) {
	c.scanK, c.scanV = c.scanK[:0], c.scanV[:0]
	ct := c.ct
	var t int64
	if ct != nil {
		t = now()
	}
	it := s.NewIterator()
	if ct != nil {
		t = ct.child(spanIterOpen, &ct.iterOpen, t)
	}
	it.Seek(c.key[:])
	if ct != nil {
		t = now()
	}
	for i := 0; i < scanLen && it.Next(); i++ {
		if ct != nil {
			t = ct.child(spanIterNext, &ct.iterNext, t)
		}
		c.scanK = append(c.scanK, it.Key())
		c.scanV = append(c.scanV, it.Value())
	}
}

// check validates o's outputs. A Get of a preloaded key must hit and
// carry its own key id; a scan must be strictly ascending with every
// value carrying its key's id. A scan that sees one group at two
// versions is a torn snapshot, counted apart from failures.
func (c *client) check(o op) {
	switch o.kind {
	case opGet:
		if _, ok := checkValue(c.got, o.id); !c.found || !ok {
			c.failed++
		}
	case opScan:
		group, gver := uint32(0), uint64(0)
		tornGroup := false
		for i, k := range c.scanK {
			id, ok := keyID(k)
			ver, vok := checkValue(c.scanV[i], id)
			if !ok || !vok || (i > 0 && bytes.Compare(c.scanK[i-1], k) >= 0) {
				c.failed++
				return
			}
			g := id / groupSize
			switch {
			case i == 0 || g != group:
				group, gver, tornGroup = g, ver, false
			case ver != gver && !tornGroup:
				tornGroup = true
				c.torn++
			}
		}
	}
}

// run drives the client until the phase ends.
func (c *client) run(s kvstore.Store, start int64, windows int) {
	warmEnd := start + int64(warmup)
	end := warmEnd + int64(windows)*int64(window)
	ct := c.ct
	for {
		o := c.gen.next()
		c.prepare(o)
		if ct != nil {
			ct.beginOp(c.ops)
		}
		t0 := now()
		c.exec(s, o)
		t1 := now()
		if ct != nil {
			ct.endOp(o.kind, t0, t1)
		}
		c.ops++
		c.kindOps[o.kind]++
		c.check(o)
		if t1 >= end {
			return
		}
		if t1 < warmEnd {
			continue
		}
		if ct != nil {
			ct.on = true
		}
		w := int((t1 - warmEnd) / int64(window))
		c.winOps[w]++
		h := c.winLat[w][o.kind]
		if h == nil {
			h = new(hist)
			c.winLat[w][o.kind] = h
		}
		h.add(t1 - t0)
	}
}

// runPhase runs every client for warm-up plus seconds against s. The
// calling goroutine wakes at every window boundary to read the
// process CPU time. With a tracer, each client registers its goroutine
// before any client starts, and the calling goroutine also calls
// atMeasure when the warm-up ends and samples the run count at every
// boundary.
func runPhase(w *workload, s kvstore.Store, seed uint64, seconds int, tr *tracer, atMeasure func()) (clients []*client, cpu []float64, runsMean float64) {
	windows := seconds * int(time.Second/window)
	var ready, done sync.WaitGroup
	ready.Add(numClients)
	for i := 0; i < numClients; i++ {
		var ct *clientTrace
		if tr != nil {
			ct = &tr.slots[i]
		}
		clients = append(clients, newClient(w, seed, i, windows, ct))
	}
	start := now()
	for _, c := range clients {
		done.Add(1)
		go func(c *client) {
			defer done.Done()
			if c.ct != nil {
				c.ct.g = getg()
			}
			ready.Done()
			ready.Wait()
			c.run(s, start, windows)
		}(c)
	}
	ready.Wait()
	cpu = make([]float64, windows+1)
	var runs []float64
	for k := range cpu {
		time.Sleep(time.Duration(start + int64(warmup) + int64(k)*int64(window) - now()))
		cpu[k] = cpuSeconds()
		if tr != nil {
			if k == 0 {
				atMeasure()
			}
			runs = append(runs, float64(s.Runs())/float64(max(w.shards, 1)))
		}
	}
	done.Wait()
	if tr != nil {
		runsMean = stats.Mean(runs)
	}
	return clients, cpu, runsMean
}

// cpuSeconds is the CPU time the process has used, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// verify reads back every group after the run: each key must hold the
// batch writer's last version of its group. It applies when one client
// wrote batches and no client wrote single keys, and returns the checks
// made and the checks failed.
func verify(s kvstore.Store, clients []*client) (checks, failed uint64) {
	var writer *client
	for _, c := range clients {
		if c.kindOps[opPut] > 0 || (c.kindOps[opBatch] > 0 && writer != nil) {
			return 0, 0
		}
		if c.kindOps[opBatch] > 0 {
			writer = c
		}
	}
	if writer == nil {
		return 0, 0
	}
	var k [16]byte
	for g, want := range writer.groupVer {
		for i := 0; i < groupSize; i++ {
			id := uint32(g*groupSize + i)
			putKey(&k, id)
			v, found := s.Get(k[:])
			ver, ok := checkValue(v, id)
			checks++
			if !found || !ok || ver != want {
				failed++
			}
		}
	}
	return checks, failed
}

// summary is one phase's end-to-end result.
type summary struct {
	ops, measured, failed, torn uint64
	opsPerS                     float64
	// opsPerCPU divides each window's operations by the CPU time the
	// process got in it, so time the host gives to other tenants does
	// not count against the store.
	opsPerCPU float64
	// The percentiles are medians over windows, in nanoseconds; n
	// counts the samples behind them.
	p50, p90, p99 [numKinds]float64
	n             [numKinds]uint64
	jain          float64
}

func summarize(clients []*client, cpu []float64) summary {
	var s summary
	windows := len(clients[0].winOps)
	perClient := make([]float64, len(clients))
	rates := make([]float64, windows)
	perCPU := make([]float64, windows)
	var p50s, p90s, p99s [numKinds][]float64
	for w := 0; w < windows; w++ {
		var merged [numKinds]hist
		for i, c := range clients {
			rates[w] += float64(c.winOps[w]) / window.Seconds()
			perClient[i] += float64(c.winOps[w])
			perCPU[w] += float64(c.winOps[w]) / (cpu[w+1] - cpu[w])
			for k, h := range c.winLat[w] {
				if h != nil {
					merged[k].merge(h)
				}
			}
		}
		for k := range merged {
			if merged[k].n > 0 {
				p50s[k] = append(p50s[k], merged[k].quantile(0.5))
				p90s[k] = append(p90s[k], merged[k].quantile(0.9))
				p99s[k] = append(p99s[k], merged[k].quantile(0.99))
				s.n[k] += merged[k].n
			}
		}
	}
	for _, c := range clients {
		s.ops += c.ops
		s.failed += c.failed
		s.torn += c.torn
	}
	for k := range p50s {
		if len(p50s[k]) > 0 {
			s.p50[k] = stats.Median(p50s[k])
			s.p90[k] = stats.Median(p90s[k])
			s.p99[k] = stats.Median(p99s[k])
		}
	}
	for _, v := range perClient {
		s.measured += uint64(v)
	}
	s.opsPerS = stats.Median(rates)
	s.opsPerCPU = stats.Median(perCPU)
	s.jain = stats.JainIndex(perClient)
	return s
}

// kinds lists the operation kinds the phase ran, in kind order.
func (s *summary) kinds() []opKind {
	var out []opKind
	for k := opKind(0); k < numKinds; k++ {
		if s.n[k] > 0 {
			out = append(out, k)
		}
	}
	return out
}
