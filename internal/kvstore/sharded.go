package kvstore

import (
	"sort"
	"sync"

	"repro/internal/core"
)

// ShardedOptions configures a ShardedDB.
type ShardedOptions struct {
	// Shards is the partition count (default 16). Every key lives in
	// exactly one shard, selected by hashing the key.
	Shards int
	// NewLock constructs one guarding lock per shard; it is called
	// exactly Shards times, in shard order (shard 0 first), so callers
	// can associate instrumentation with shard indices. Nil selects
	// the Reciprocating Lock; build catalog locks, with any decorator
	// options, through registry.Build.
	NewLock func() sync.Locker
	// MemTableBytes is the per-shard freeze threshold (default 1 MiB,
	// like the coarse store; callers comparing against a coarse DB of
	// budget B typically pass B/Shards).
	MemTableBytes int
	// MaxRuns is the per-shard compaction trigger (default 4).
	MaxRuns int
}

// ShardedDB is the hash-partitioned successor of the coarse DB: the
// keyspace is split across Shards independent memtable+run stacks,
// each guarded by its own pluggable lock, so single-key operations on
// different shards never contend. Cross-shard operations (multi-key
// Write batches and iterator snapshots) go through a striped lock
// table that acquires every involved shard lock in canonical
// ascending shard order — two-phase locking with a total order, which
// makes them deadlock-free and atomic with respect to each other: an
// iterator snapshot can never observe a torn multi-key batch.
//
// This is the coarse-vs-fine trade-off studied in the coarse-grained
// locking literature (see PAPERS.md): with one shard the ShardedDB
// degenerates to the paper's Figure 3 shape, and the shard count is a
// first-class experiment dimension next to the lock algorithm.
type ShardedDB struct {
	shards []*DB
	table  stripeTable
}

// OpenSharded creates an empty sharded database.
func OpenSharded(opts ShardedOptions) *ShardedDB {
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	mk := opts.NewLock
	if mk == nil {
		mk = func() sync.Locker { return new(core.Lock) }
	}
	s := &ShardedDB{shards: make([]*DB, n)}
	locks := make([]sync.Locker, n)
	for i := range s.shards {
		l := mk()
		s.shards[i] = Open(Options{
			Lock:          l,
			MemTableBytes: opts.MemTableBytes,
			MaxRuns:       opts.MaxRuns,
		})
		locks[i] = l
	}
	s.table = newStripeTable(locks)
	return s
}

// shardIndex hashes key (FNV-1a) onto one of n shards without
// allocating — the sharded Get hot path must add zero allocations
// over the coarse path (asserted by TestShardedGetAddsNoAllocs).
func shardIndex(key []byte, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(n))
}

// NumShards reports the partition count.
func (s *ShardedDB) NumShards() int { return len(s.shards) }

// ShardIndex reports which shard owns key (diagnostics and tests).
func (s *ShardedDB) ShardIndex(key []byte) int {
	return shardIndex(key, len(s.shards))
}

// shard returns the DB owning key.
func (s *ShardedDB) shard(key []byte) *DB {
	return s.shards[shardIndex(key, len(s.shards))]
}

// Get looks up a key in its shard: hash → shard → lock → lookup.
func (s *ShardedDB) Get(key []byte) ([]byte, bool) {
	return s.shard(key).Get(key)
}

// Put inserts or updates a key in its shard.
func (s *ShardedDB) Put(key, value []byte) {
	s.shard(key).Put(key, value)
}

// Delete removes a key (tombstone) from its shard.
func (s *ShardedDB) Delete(key []byte) {
	s.shard(key).Delete(key)
}

// Write applies the batch atomically: the ops are grouped by shard and
// every involved shard lock is held simultaneously (acquired in
// canonical ascending order through the stripe table) while the groups
// are applied, so concurrent iterators and overlapping batches
// serialize cleanly instead of deadlocking or observing torn writes.
// Within each shard the batch's operation order is preserved.
func (s *ShardedDB) Write(b *Batch) {
	if b.Len() == 0 {
		return
	}
	if len(s.shards) == 1 {
		s.shards[0].Write(b)
		return
	}
	groups := make([][]batchOp, len(s.shards))
	touched := make([]int, 0, len(s.shards))
	for _, op := range b.ops {
		si := shardIndex(op.key, len(s.shards))
		if groups[si] == nil {
			touched = append(touched, si)
		}
		groups[si] = append(groups[si], op)
	}
	sort.Ints(touched)
	s.table.lockSet(touched)
	for _, si := range touched {
		s.shards[si].applyLocked(groups[si])
	}
	s.table.unlockSet(touched)
}

// NewIterator captures a consistent snapshot of every shard — all
// shard locks are held simultaneously while the memtable and run
// references are collected, so the snapshot sits at a single point in
// the total order of cross-shard batches — and returns a merging
// iterator over it. When the shard locks admit shared readers the
// snapshot holds them all in read mode: batch writers (exclusive) are
// still fully excluded, but concurrent snapshots no longer serialize
// against each other. Hash partitioning guarantees a key appears in at
// most one shard, so cross-shard merging never has to resolve
// duplicate keys.
func (s *ShardedDB) NewIterator() *Iterator {
	if len(s.shards) == 1 {
		return s.shards[0].NewIterator()
	}
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	mems := make([]*slIter, len(s.shards))
	runs := make([][]*Run, len(s.shards))
	s.table.rlockSet(all)
	for i, sh := range s.shards {
		mems[i] = newSlIter(sh.mem)
		runs[i] = sh.runs
	}
	s.table.runlockSet(all)

	it := &Iterator{}
	for i := range s.shards {
		it.sources = append(it.sources, mems[i])
		for _, r := range runs[i] {
			it.sources = append(it.sources, &runIter{r: r})
		}
	}
	return it
}

// Stats sums the per-shard counters.
func (s *ShardedDB) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		total.Gets += st.Gets
		total.Puts += st.Puts
		total.Deletes += st.Deletes
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Freezes += st.Freezes
		total.Compactions += st.Compactions
	}
	return total
}

// ShardStats returns one shard's counters (diagnostics and tests).
func (s *ShardedDB) ShardStats(i int) Stats { return s.shards[i].Stats() }

// Runs sums the frozen-run counts across shards (diagnostics).
func (s *ShardedDB) Runs() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Runs()
	}
	return n
}
