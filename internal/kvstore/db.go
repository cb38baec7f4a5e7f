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
// Structure (per shard): an active memtable (concurrent-read
// skiplist), a stack of frozen sorted runs (SSTable stand-ins), and a
// full merge when the run count exceeds a threshold. Reads consult
// memtable then runs newest-first; deletion uses tombstones.
package kvstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rwlock"
)

// Chaos points. kvstore.put and kvstore.freeze fire while holding the
// store's mutex (per shard, in a ShardedDB), stretching hold times to
// amplify contention;
// kvstore.snapshot fires between Get's snapshot and its lock-free
// search, widening the window in which a stale snapshot must stay
// consistent under concurrent freezes and compactions.
var (
	chKvPut      = chaos.NewPoint("kvstore.put")
	chKvFreeze   = chaos.NewPoint("kvstore.freeze")
	chKvSnapshot = chaos.NewPoint("kvstore.snapshot")

	siteKvPut      = chKvPut.Site("DB.Put")
	siteKvFreeze   = chKvFreeze.Site("DB.maybeFreezeLocked")
	siteKvSnapshot = chKvSnapshot.Site("DB.Get")
)

// Options configures a DB.
type Options struct {
	// Lock guards the database; nil selects the Reciprocating Lock.
	// Build one from the repository catalog with registry.Build.
	Lock sync.Locker
	// MemTableBytes is the freeze threshold (default 1 MiB).
	MemTableBytes int
	// MaxRuns triggers a full merge when exceeded (default 4).
	MaxRuns int
}

// Stats counts DB activity. Write-path counters (Puts, Deletes,
// Freezes, Compactions) are guarded by the store lock; read-path
// counters (Gets, Hits, Misses) are updated atomically because shared
// readers record them concurrently when the lock admits read sharing.
type Stats struct {
	Gets, Puts, Deletes  uint64
	Hits, Misses         uint64
	Freezes, Compactions uint64
}

// DB is the database.
type DB struct {
	mu   sync.Locker
	opts Options

	// rmu is mu's shared-read surface, non-nil exactly when the
	// configured lock admits concurrent readers (implements
	// rwlock.RWLocker). When set, Get and NewIterator snapshot state
	// under RLock instead of Lock, so readers stop serializing through
	// the writer's lock word.
	rmu rwlock.RWLocker

	// Guarded by mu (shared readers hold rmu); Get snapshots mem+runs
	// under the lock and searches outside it (LevelDB's Get pattern).
	mem   *SkipList
	runs  []*Run
	stats Stats
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.Lock == nil {
		opts.Lock = new(core.Lock)
	}
	if opts.MemTableBytes <= 0 {
		opts.MemTableBytes = 1 << 20
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 4
	}
	db := &DB{mu: opts.Lock, opts: opts, mem: NewSkipList()}
	db.rmu, _ = opts.Lock.(rwlock.RWLocker)
	return db
}

// Put inserts or updates a key.
func (db *DB) Put(key, value []byte) {
	db.mu.Lock()
	siteKvPut.Hit()
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
	siteKvFreeze.Hit()
	frozen := buildRun(db.mem)
	// Newest first; replace the slice wholesale so concurrent readers
	// holding the previous snapshot stay consistent.
	db.runs = append([]*Run{frozen}, db.runs...)
	db.mem = NewSkipList()
	db.stats.Freezes++
	if len(db.runs) > db.opts.MaxRuns {
		db.runs = []*Run{mergeRuns(db.runs)}
		db.stats.Compactions++
	}
}

// Get looks up a key, mirroring leveldb::DBImpl::Get's locking
// pattern: take the central mutex to snapshot references, drop it for
// the actual search, and retake it to update statistics. When the
// configured lock admits shared readers the same two acquisitions run
// on the read path (RLock) instead, so concurrent Gets stop
// serializing on the lock word while writers keep full exclusion.
func (db *DB) Get(key []byte) ([]byte, bool) {
	if db.rmu != nil {
		return db.getShared(key)
	}
	db.mu.Lock()
	mem := db.mem
	runs := db.runs
	db.mu.Unlock()

	siteKvSnapshot.Hit()
	val, found := get(mem, runs, key)

	db.mu.Lock()
	db.recordGet(found)
	db.mu.Unlock()
	return val, found
}

// getShared is Get over the lock's shared-read surface: the same
// two-acquisition shape, both acquisitions shared. Snapshot
// consistency holds because RLock fully excludes writers, and the
// stats episode uses atomic counters because concurrent readers are
// admitted together.
func (db *DB) getShared(key []byte) ([]byte, bool) {
	db.rmu.RLock()
	mem := db.mem
	runs := db.runs
	db.rmu.RUnlock()

	siteKvSnapshot.Hit()
	val, found := get(mem, runs, key)

	db.rmu.RLock()
	db.recordGet(found)
	db.rmu.RUnlock()
	return val, found
}

// recordGet bumps the read-path counters. Atomic because in shared
// mode multiple readers record concurrently; harmless (and still
// cheap) under the exclusive lock.
func (db *DB) recordGet(found bool) {
	atomic.AddUint64(&db.stats.Gets, 1)
	if found {
		atomic.AddUint64(&db.stats.Hits, 1)
	} else {
		atomic.AddUint64(&db.stats.Misses, 1)
	}
}

// get searches a snapshot (memtable, then runs newest-first).
func get(mem *SkipList, runs []*Run, key []byte) ([]byte, bool) {
	if v, ok, tomb := mem.Get(key); ok {
		if tomb {
			return nil, false
		}
		return v, true
	}
	for _, r := range runs {
		if v, tomb, ok := r.Get(key); ok {
			if tomb {
				return nil, false
			}
			return v, true
		}
	}
	return nil, false
}

// Stats returns a snapshot of the counters. The exclusive acquisition
// drains shared readers, so the snapshot is a consistent cut; the
// read-path counters are loaded atomically to pair with recordGet.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	s := Stats{
		Gets:        atomic.LoadUint64(&db.stats.Gets),
		Puts:        db.stats.Puts,
		Deletes:     db.stats.Deletes,
		Hits:        atomic.LoadUint64(&db.stats.Hits),
		Misses:      atomic.LoadUint64(&db.stats.Misses),
		Freezes:     db.stats.Freezes,
		Compactions: db.stats.Compactions,
	}
	db.mu.Unlock()
	return s
}

// Runs reports the current number of frozen runs (diagnostics).
func (db *DB) Runs() int {
	db.mu.Lock()
	n := len(db.runs)
	db.mu.Unlock()
	return n
}
