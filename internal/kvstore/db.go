// Package kvstore is an LSM-lite in-memory key-value store built as
// the Figure 3 substrate, offered at two locking granularities behind
// one Store interface:
//
//   - DB is the faithful Figure 3 shape: like LevelDB, the entire
//     database is guarded by one coarse central mutex (DBImpl::Mutex),
//     acquired briefly to snapshot state on the read path and for the
//     whole write path.
//   - ShardedDB hash-partitions the keyspace across independent
//     shards, each its own DB guarded by its own lock, with a striped
//     lock table (canonical ascending acquisition order) making
//     cross-shard batches and iterator snapshots atomic and
//     deadlock-free.
//
// In both shapes the guarding lock is pluggable from the
// internal/registry catalog, so the §7.3 readrandom experiment can
// vary the lock algorithm — and now the shard count — under an
// unmodified application, just as the paper's LD_PRELOAD interposition
// does.
//
// Structure (per shard): an active memtable (a concurrent-read
// skiplist packed into one pointer-free byte arena, like LevelDB's
// memtable over its Arena: towers only as tall as each node, keys and
// values in place, every write appended as a record chained to the
// one it replaces, so overwrites count towards the freeze threshold),
// a stack of frozen sorted runs (SSTable stand-ins), and a full merge
// when the run count exceeds a threshold. Reads consult
// memtable then runs newest-first, skipping every source whose Bloom
// filter rules the key out (bloom.go): each memtable and run keeps one,
// tombstones included, so a Get hashes its key once and searches only
// the sources that may hold it. Deletion uses tombstones. A run is
// pointer-free — key and value byte arenas addressed by offset arrays
// — and Get searches it over one machine word of key per entry
// (run.go): a binary search of the run's fence, every 8th word, small
// enough to stay in cache, picks the one 64-byte line of words that
// can hold the key, so the search outside the lock costs one index
// miss and the key's own bytes rather than a miss per probe.
//
// Freezes and compactions run under the write lock, so their cost is
// critical-section length. A freeze sizes its run from totals the
// memtable's writer keeps, and a full merge copies each stretch of
// entries that one run contributes whole, keys and values in one block
// each, so merging costs a heap step per stretch, not per entry.
package kvstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/rwlock"
)

// Chaos points. kvstore.put (DB.Put) and kvstore.freeze
// (DB.maybeFreezeLocked) fire while holding the store's mutex (per
// shard, in a ShardedDB), stretching hold times to amplify contention;
// kvstore.snapshot (DB.Get) fires between Get's snapshot and its
// lock-free search, widening the window in which a stale snapshot must
// stay consistent under concurrent freezes and compactions.
var (
	chKvPut      = chaos.NewPoint("kvstore.put")
	chKvFreeze   = chaos.NewPoint("kvstore.freeze")
	chKvSnapshot = chaos.NewPoint("kvstore.snapshot")
)

// Options configures a DB.
type Options struct {
	// Lock guards the database; nil selects the Reciprocating Lock.
	// Build one from the repository catalog with registry.Build.
	Lock sync.Locker
	// MemTableBytes is the freeze threshold (default 1 MiB), in
	// memtable arena bytes: every write's, overwrites and tombstones
	// included. It also caps the arena's growth and sizes each
	// memtable's Bloom filter, at one bit per 8 bytes.
	MemTableBytes int
	// MaxRuns triggers a full merge when exceeded (default 4).
	MaxRuns int
}

// defaultMemTableBytes is Options.MemTableBytes's default.
const defaultMemTableBytes = 1 << 20

// Stats counts DB activity. Write-path counters (Puts, Deletes,
// Freezes, Compactions) are guarded by the store lock; read-path
// counters (Hits, Misses) are updated atomically because shared readers
// record them concurrently when the lock admits read sharing, and Gets
// is their sum.
type Stats struct {
	Gets, Puts, Deletes  uint64
	Hits, Misses         uint64
	Freezes, Compactions uint64
}

// DB is the database.
type DB struct {
	mu sync.Locker
	// readMu is mu's read side (rwlock.ReadLocker): RLock/RUnlock when
	// the configured lock admits concurrent readers, mu itself
	// otherwise. Get and NewIterator snapshot state under it, so shared
	// readers stop serializing through the writer's lock word.
	readMu sync.Locker
	opts   Options

	// Guarded by mu (readers hold readMu); Get snapshots mem+runs
	// under the lock and searches outside it (LevelDB's Get pattern).
	mem   *SkipList
	runs  []*Run
	stats Stats // write-path counters; Stats derives the read-path ones

	// Every Get bumps one of these, so they sit on a line of their own:
	// shared on a line with mem and runs, they would invalidate every
	// other reader's snapshot loads.
	_            pad.Line
	hits, misses atomic.Uint64
	_            pad.Line
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.Lock == nil {
		opts.Lock = new(core.Lock)
	}
	if opts.MemTableBytes <= 0 {
		opts.MemTableBytes = defaultMemTableBytes
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 4
	}
	return &DB{mu: opts.Lock, readMu: rwlock.ReadLocker(opts.Lock), opts: opts, mem: newSkipList(opts.MemTableBytes)}
}

// Put inserts or updates a key.
func (db *DB) Put(key, value []byte) {
	db.mu.Lock()
	chKvPut.Hit()
	db.mem.Put(key, value)
	db.stats.Puts++
	db.maybeFreezeLocked()
	db.mu.Unlock()
}

// Delete removes a key (tombstone).
func (db *DB) Delete(key []byte) {
	db.mu.Lock()
	db.mem.Delete(key)
	db.stats.Deletes++
	db.maybeFreezeLocked()
	db.mu.Unlock()
}

// maybeFreezeLocked freezes a full memtable into a run and compacts
// when the run stack grows too tall. Caller holds mu.
func (db *DB) maybeFreezeLocked() {
	if db.mem.Bytes() < db.opts.MemTableBytes {
		return
	}
	chKvFreeze.Hit()
	frozen := buildRun(db.mem)
	// Newest first; replace the slice wholesale so concurrent readers
	// holding the previous snapshot stay consistent.
	db.runs = append([]*Run{frozen}, db.runs...)
	db.mem = newSkipList(db.opts.MemTableBytes)
	db.stats.Freezes++
	if len(db.runs) > db.opts.MaxRuns {
		db.runs = []*Run{mergeRuns(db.runs)}
		db.stats.Compactions++
	}
}

// Get looks up a key, mirroring leveldb::DBImpl::Get's locking
// pattern: take the central mutex to snapshot references, drop it for
// the actual search, and retake it to update statistics. Both
// acquisitions run on the lock's read side, so when the lock admits
// shared readers concurrent Gets stop serializing on the lock word
// while writers keep full exclusion; snapshot consistency holds because
// the read side fully excludes writers. The value aliases store memory,
// under the contract on Store.Get.
func (db *DB) Get(key []byte) ([]byte, bool) {
	db.readMu.Lock()
	mem := db.mem
	runs := db.runs
	db.readMu.Unlock()

	chKvSnapshot.Hit()
	val, found := get(mem, runs, key)

	db.readMu.Lock()
	db.recordGet(found)
	db.readMu.Unlock()
	return val, found
}

// recordGet bumps one read-path counter. Atomic because shared
// readers record concurrently; harmless (and still cheap) under an
// exclusive lock.
func (db *DB) recordGet(found bool) {
	if found {
		db.hits.Add(1)
	} else {
		db.misses.Add(1)
	}
}

// get searches a snapshot (memtable, then runs newest-first), skipping
// each source whose filter rules key out; the first source holding key
// decides, and a tombstone there hides it.
func get(mem *SkipList, runs []*Run, key []byte) ([]byte, bool) {
	p := newProbe(key)
	var v []byte
	var found, tomb bool
	if mem.filter.mayContain(p) {
		v, found, tomb = mem.Get(key)
	}
	for i := 0; !found && i < len(runs); i++ {
		if runs[i].filter.mayContain(p) {
			v, found, tomb = runs[i].Get(key)
		}
	}
	if !found || tomb {
		return nil, false
	}
	return v, true
}

// Stats returns a snapshot of the counters. The exclusive acquisition
// drains shared readers, so the snapshot is a consistent cut; the
// read-path counters are loaded atomically to pair with recordGet.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	s := db.stats
	s.Hits, s.Misses = db.hits.Load(), db.misses.Load()
	db.mu.Unlock()
	s.Gets = s.Hits + s.Misses
	return s
}

// Runs reports the current number of frozen runs (diagnostics).
func (db *DB) Runs() int {
	db.mu.Lock()
	n := len(db.runs)
	db.mu.Unlock()
	return n
}
