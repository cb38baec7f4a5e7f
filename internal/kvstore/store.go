package kvstore

// Store is the operation surface shared by the coarse DB and the
// ShardedDB: everything the benchmark workloads, the conformance
// properties, and the example applications need, so shard count is a
// configuration axis rather than a code path. Both implementations
// promise the same semantics — atomic batches, snapshot iterators,
// linearizable single-key operations — and differ only in how many
// locks guard the keyspace.
type Store interface {
	// Get looks up a key. The returned value aliases immutable store
	// memory: it stays valid for the store's lifetime and must not be
	// modified. Writes copy their keys and values on the way in, which
	// is what makes the aliasing safe, and a returned slice has
	// cap == len, so an append to it copies and leaves the store alone.
	Get(key []byte) ([]byte, bool)
	// Put inserts or updates a key.
	Put(key, value []byte)
	// Delete removes a key (tombstone).
	Delete(key []byte)
	// Write applies a batch atomically.
	Write(b *Batch)
	// NewIterator captures a consistent snapshot and returns a merging
	// iterator over it.
	NewIterator() *Iterator
	// Stats returns a snapshot of the activity counters.
	Stats() Stats
	// Runs reports the frozen-run count (diagnostics).
	Runs() int
}

var (
	_ Store = (*DB)(nil)
	_ Store = (*ShardedDB)(nil)
)
