package kvstore

import (
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
	all    []int // every shard index, ascending: an iterator's stripe set
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
	s := &ShardedDB{shards: make([]*DB, n), all: make([]int, n)}
	for i := range s.shards {
		s.all[i] = i
		s.shards[i] = Open(Options{
			Lock:          mk(),
			MemTableBytes: opts.MemTableBytes,
			MaxRuns:       opts.MaxRuns,
		})
	}
	s.table = newStripeTable(s.shards)
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

// Get looks up a key in its shard: hash → shard → lock → lookup. The
// value aliases store memory, under the contract on Store.Get.
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
	ops, bounds, touched := s.groupByShard(b)
	s.table.write.lockSet(touched)
	for _, si := range touched {
		s.shards[si].applyLocked(b.rep, ops[bounds[si]:bounds[si+1]])
	}
	s.table.write.unlockSet(touched)
}

// groupByShard sorts b's ops by shard in one stable counting pass:
// shard si's ops are ops[bounds[si]:bounds[si+1]], in batch order, so
// a key queued twice still ends at its newest value. touched lists the
// shards with ops in ascending order, as lockSet wants them. It makes
// two allocations however large the batch or the store.
func (s *ShardedDB) groupByShard(b *Batch) (ops []batchOp, bounds, touched []int) {
	n := len(s.shards)
	idx := make([]int, 2*n+1)
	bounds, touched = idx[:n+1], idx[n+1:n+1]
	for _, op := range b.ops {
		bounds[shardIndex(op.key(b.rep), n)]++
	}
	// Counts become each shard's end offset; placing the ops from the
	// last back then walks every end down to its shard's start.
	for si := 0; si < n; si++ {
		if bounds[si] > 0 {
			touched = append(touched, si)
		}
		if si > 0 {
			bounds[si] += bounds[si-1]
		}
	}
	bounds[n] = len(b.ops)
	ops = make([]batchOp, len(b.ops))
	for i := len(b.ops) - 1; i >= 0; i-- {
		si := shardIndex(b.ops[i].key(b.rep), n)
		bounds[si]--
		ops[bounds[si]] = b.ops[i]
	}
	return ops, bounds, touched
}

// NewIterator captures a consistent snapshot of every shard — all
// shard locks are held simultaneously while the memtable and run
// references are collected, so the snapshot sits at a single point in
// the total order of cross-shard batches — and returns a merging
// iterator over it. The snapshot holds every shard lock's read side:
// batch writers (exclusive) are fully excluded, and where the shard
// locks admit shared readers concurrent snapshots no longer serialize
// against each other. Hash partitioning guarantees a key appears in at
// most one shard, so cross-shard merging never has to resolve
// duplicate keys: every shard's sources join one flat merge heap.
func (s *ShardedDB) NewIterator() *Iterator {
	if len(s.shards) == 1 {
		return s.shards[0].NewIterator()
	}
	src := make([]source, 0, len(s.shards)*(1+s.shards[0].opts.MaxRuns))
	s.table.read.lockSet(s.all)
	for _, sh := range s.shards {
		src = sh.snapshotLocked(src)
	}
	s.table.read.unlockSet(s.all)
	return newIterator(src)
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
