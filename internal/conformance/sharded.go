package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/xrand"
)

// Shard-aware properties: the sharded kvstore is the repository's
// first composite subject — many locks cooperating behind one store —
// so the suite checks the composition, not just each lock alone.
// Both checks run on the SimTwin subset of the catalog (the
// entries with a verified deterministic model), which keeps the
// `make conformance` tier's runtime proportionate while still
// covering every algorithm family that the differential harness
// vouches for.

// shardCheckShards is the partition count of the conformance store.
const shardCheckShards = 8

// admissionLocker brackets every critical section of one shard's lock
// in a lockstat.AdmissionLog — the same overlapping-holder probe the
// flat mutual-exclusion check uses, here applied per shard. The
// holder id is fixed at 0: the log's overlap detection is what the
// property needs, and goroutine identity is not observable from
// inside a sync.Locker. Every few acquisitions the probe yields while
// inside the critical section — without that, a single-P scheduler
// almost never preempts the store's short guarded regions and a
// broken lock would sail through undetected (CheckMutualExclusion
// yields the same way).
type admissionLocker struct {
	inner sync.Locker
	log   *lockstat.AdmissionLog
	ticks atomic.Uint64
}

func (a *admissionLocker) Lock() {
	a.inner.Lock()
	a.log.Enter(0)
	if a.ticks.Add(1)%7 == 0 {
		runtime.Gosched()
	}
}

func (a *admissionLocker) Unlock() {
	a.log.Exit(0)
	a.inner.Unlock()
}

// shardedUnderTest builds a sharded store whose per-shard locks are
// fresh instances of e wrapped in admission logs, returning the store
// and the logs in shard order.
func shardedUnderTest(e registry.Entry) (*kvstore.ShardedDB, []*lockstat.AdmissionLog) {
	logs := make([]*lockstat.AdmissionLog, 0, shardCheckShards)
	db := kvstore.OpenSharded(kvstore.ShardedOptions{
		Shards:        shardCheckShards,
		MemTableBytes: 4 << 10,
		MaxRuns:       2,
		NewLock: func() sync.Locker {
			log := lockstat.NewAdmissionLog()
			logs = append(logs, log)
			return &admissionLocker{inner: e.New(nil), log: log}
		},
	})
	return db, logs
}

// CheckShardedMutualExclusion verifies per-shard mutual exclusion in
// the sharded kvstore: goroutines hammer the store with a seeded mix
// of single-key operations and cross-shard batches while every
// shard's lock reports its admissions through an AdmissionLog; any
// overlapping holders on any shard — including a cross-shard batch
// racing a single-key writer for the same shard — fail the check.
// Every shard must also have actually admitted work, so a broken hash
// cannot pass by starving shards.
func CheckShardedMutualExclusion(e registry.Entry, o Options) error {
	if e.SimTwin == "" {
		return skipError("shard properties run on the SimTwin subset")
	}
	o = o.withDefaults()
	db, logs := shardedUnderTest(e)
	iters := o.Iters / 4
	if iters < 100 {
		iters = 100
	}
	var wg sync.WaitGroup
	for g := 0; g < o.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewXorShift64(o.Seed + uint64(g)*0xa24baed4963ee407)
			for i := 0; i < iters; i++ {
				k := kvstore.Key(uint64(rng.Intn(256)))
				switch rng.Intn(6) {
				case 0:
					db.Put(k, k)
				case 1:
					db.Delete(k)
				case 2:
					var b kvstore.Batch
					for j := 0; j < 4; j++ {
						b.Put(kvstore.Key(uint64(rng.Intn(256))), k)
					}
					db.Write(&b)
				default:
					db.Get(k)
				}
				if rng.Intn(16) == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Wait()
	for s, log := range logs {
		if err := log.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if log.Len() == 0 {
			return fmt.Errorf("shard %d admitted no critical sections over %d ops (hash starvation)", s, o.Goroutines*iters)
		}
	}
	return nil
}

// CheckShardedIterator verifies cross-shard snapshot consistency: a
// writer repeatedly applies one atomic batch stamping the same
// generation onto a key group that spans every shard, while readers
// take iterator snapshots and demand a single generation across the
// whole group — a torn multi-key batch (some shards new, some old)
// fails immediately. The store's stripe table makes this hold by
// construction (batches and snapshots both hold all involved shard
// locks); the check guards the discipline against regression under
// every lock algorithm.
func CheckShardedIterator(e registry.Entry, o Options) error {
	if e.SimTwin == "" {
		return skipError("shard properties run on the SimTwin subset")
	}
	o = o.withDefaults()
	db, _ := shardedUnderTest(e)

	// One key per shard, so every batch straddles all of them.
	group := make([][]byte, shardCheckShards)
	for s, u := 0, uint64(0); s < shardCheckShards; u++ {
		k := kvstore.Key(u)
		if db.ShardIndex(k) == s {
			group[s] = k
			s++
		}
	}
	write := func(gen uint64) {
		var b kvstore.Batch
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], gen)
		for _, k := range group {
			b.Put(k, v[:])
		}
		db.Write(&b)
	}
	write(0)

	snapshots := o.Iters / 8
	if snapshots < 50 {
		snapshots = 50
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := uint64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
				write(gen)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < snapshots; i++ {
		it := db.NewIterator()
		gens := map[uint64]bool{}
		found := 0
		for it.Next() {
			for _, k := range group {
				if bytes.Equal(it.Key(), k) {
					gens[binary.BigEndian.Uint64(it.Value())] = true
					found++
				}
			}
		}
		if found != shardCheckShards {
			return fmt.Errorf("snapshot %d: saw %d of %d group keys (batch atomicity or iterator completeness broken)",
				i, found, shardCheckShards)
		}
		if len(gens) != 1 {
			return fmt.Errorf("snapshot %d observed a torn cross-shard batch: generations %v", i, keysOf(gens))
		}
	}
	return nil
}

func keysOf(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
