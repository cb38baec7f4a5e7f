package main

import (
	"encoding/binary"
	"sync"

	"repro/internal/kvstore"
	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/xrand"
)

// numClients is the closed-loop client count: each client sends its
// next operation only after the previous one returned.
const numClients = 2

// valueSize is the value length of every workload.
const valueSize = 100

// groupSize is the number of adjacent keys scan-batch's writer stamps
// with one version in one cross-shard batch.
const groupSize = 8

// scanLen is the number of Next calls per scan.
const scanLen = 32

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opBatch
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "batch", "scan"}

// op is one generated operation. id is a key id, except for batches,
// where it is a group id.
type op struct {
	kind opKind
	id   uint32
}

// workload describes one store configuration and its operation mix.
// All keys are uniform over [0, keys) and preloaded with version 0.
type workload struct {
	name string
	// why records what the workload stresses and what it bypasses.
	why  string
	keys int
	// shards selects a ShardedDB with that many shards; 0 selects the
	// coarse DB behind one lock.
	shards   int
	lockName string
	// pipeline builds every lock through the full decorator pipeline:
	// a disarmed chaos veto, the bounded guarantee and live lockstat.
	pipeline      bool
	memTableBytes int
	// setupReps is how many times setup_s is measured; the median is
	// reported.
	setupReps int
	// readKind is the operation read_p50_us and read_p90_us time.
	readKind opKind
	// next draws client c's next operation.
	next func(c int, r *xrand.XorShift64) op
}

var workloads = []*workload{
	{
		name: "hot-get",
		why: "coarse DB behind a bare Recipro, 4096 keys in the memtable, 100% Get: the contended lock " +
			"and its two episodes per Get dominate; decorators, runs, writes and stripes are absent",
		keys: 4096, lockName: "Recipro", memTableBytes: 1 << 20, setupReps: 25, readKind: opGet,
		next: func(_ int, r *xrand.XorShift64) op { return op{opGet, uint32(r.Intn(4096))} },
	},
	{
		name: "cold-mixed",
		why: "4 shards of rw:Recipro through the full pipeline, 1 Mi keys (far beyond memtables and L2), " +
			"90% Get / 10% Put: run search, writes, compaction and the shared read path dominate",
		keys: 1 << 20, shards: 4, lockName: "rw:Recipro", pipeline: true,
		memTableBytes: 512 << 10, setupReps: 3, readKind: opGet,
		next: func(_ int, r *xrand.XorShift64) op {
			k := uint32(r.Intn(1 << 20))
			if r.Intn(10) == 0 {
				return op{opPut, k}
			}
			return op{opGet, k}
		},
	},
	{
		name: "scan-batch",
		why: "4 shards of bare Recipro, 64 Ki keys; one client writes 8-key cross-shard batches, the other " +
			"scans 32 entries: stripe table, batch apply and iterator merging dominate; Get is unused",
		keys: 1 << 16, shards: 4, lockName: "Recipro", memTableBytes: 1 << 20, setupReps: 15, readKind: opScan,
		next: func(c int, r *xrand.XorShift64) op {
			if c == 0 {
				return op{opBatch, uint32(r.Intn(1 << 16 / groupSize))}
			}
			return op{opScan, uint32(r.Intn(1 << 16))}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generator is one client's deterministic operation stream.
type generator struct {
	w *workload
	c int
	r *xrand.XorShift64
}

// newGenerator derives client c's stream from the run seed and the
// workload name, so every (workload, seed, client) triple has its own
// reproducible stream.
func newGenerator(w *workload, seed uint64, c int) *generator {
	h := seed
	for _, b := range []byte(w.name) {
		h = h*0x100000001b3 ^ uint64(b)
	}
	sm := xrand.NewSplitMix64(h ^ uint64(c+1)*0x9e3779b97f4a7c15)
	return &generator{w: w, c: c, r: xrand.NewXorShift64(sm.Uint64())}
}

func (g *generator) next() op { return g.w.next(g.c, g.r) }

// putKey writes key id's 16-byte big-endian key (kvstore.Key's layout).
func putKey(b *[16]byte, id uint32) {
	binary.BigEndian.PutUint64(b[:8], 0)
	binary.BigEndian.PutUint64(b[8:], uint64(id))
}

func keyID(k []byte) (uint32, bool) {
	if len(k) != 16 || binary.BigEndian.Uint64(k[:8]) != 0 {
		return 0, false
	}
	id := binary.BigEndian.Uint64(k[8:])
	return uint32(id), id < 1<<32
}

// putValue encodes a value carrying its key id and version; the
// remaining bytes repeat the id's low byte so truncation shows.
func putValue(b *[valueSize]byte, id uint32, ver uint64) {
	binary.BigEndian.PutUint32(b[:4], id)
	binary.BigEndian.PutUint64(b[4:12], ver)
	for i := 12; i < valueSize; i++ {
		b[i] = byte(id)
	}
}

// checkValue decodes a value and reports whether it is well formed and
// belongs to key id.
func checkValue(v []byte, id uint32) (ver uint64, ok bool) {
	if len(v) != valueSize || binary.BigEndian.Uint32(v[:4]) != id || v[valueSize-1] != byte(id) {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[4:12]), true
}

// buildLock builds one store lock through registry.Build: bare, or
// through the full pipeline with telemetry into st.
func (w *workload) buildLock(st *lockstat.Stats) sync.Locker {
	var opts []registry.Option
	if w.pipeline {
		opts = []registry.Option{registry.WithChaosVeto(""), registry.WithBounded(), registry.WithStats(st)}
	}
	l, err := registry.Build(w.lockName, opts...)
	if err != nil {
		panic(err) // the workload table names catalog locks only
	}
	return l
}

// open creates an empty store whose locks come from newLock.
func (w *workload) open(newLock func() sync.Locker) kvstore.Store {
	if w.shards == 0 {
		return kvstore.Open(kvstore.Options{Lock: newLock(), MemTableBytes: w.memTableBytes})
	}
	return kvstore.OpenSharded(kvstore.ShardedOptions{
		Shards: w.shards, NewLock: newLock, MemTableBytes: w.memTableBytes,
	})
}

// fill preloads every key with version 0.
func (w *workload) fill(s kvstore.Store) {
	var k [16]byte
	var v [valueSize]byte
	for id := 0; id < w.keys; id++ {
		putKey(&k, uint32(id))
		putValue(&v, uint32(id), 0)
		s.Put(k[:], v[:])
	}
}

// dataBytes is the user data the preloaded store holds.
func (w *workload) dataBytes() float64 { return float64(w.keys * (16 + valueSize)) }
