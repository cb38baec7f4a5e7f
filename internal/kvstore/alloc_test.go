package kvstore

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"
)

// The sharded Get hot path — hash → shard → lock → lookup — must add
// zero allocations over the coarse path: the shard routing is pure
// arithmetic over the key bytes, and both paths share the same
// snapshot-then-search read protocol. A regression here (a hash that
// boxes, an interface conversion in shard()) would tax every read in
// every shard sweep. Both stores lock with sync.Mutex, so the count is
// the store's own (see openMutexSharded); the default lock's own
// allocations are pinned by registry's TestLockUnlockFastPathAllocFree.
func TestShardedGetAddsNoAllocs(t *testing.T) {
	const keys = 2048
	coarse := Open(Options{Lock: new(sync.Mutex), MemTableBytes: 64 << 10})
	sharded := OpenSharded(ShardedOptions{
		Shards:        8,
		NewLock:       func() sync.Locker { return new(sync.Mutex) },
		MemTableBytes: 16 << 10,
	})
	FillSeq(coarse, keys, 32)
	FillSeq(sharded, keys, 32)

	probe := func(db Store) float64 {
		i := uint64(0)
		k := Key(0)
		return testing.AllocsPerRun(2000, func() {
			binary.BigEndian.PutUint64(k[8:], i%keys)
			db.Get(k)
			i++
		})
	}
	base := probe(coarse)
	got := probe(sharded)
	if got > base {
		t.Fatalf("sharded Get allocates %.2f allocs/op vs coarse %.2f — the hot path grew an allocation", got, base)
	}
	// Both paths should be allocation-free outright with a reused key.
	if base > 0 || got > 0 {
		t.Fatalf("Get hot path allocates (coarse %.2f, sharded %.2f allocs/op)", base, got)
	}
}

// Next returns slices that alias the store, so once a Seek or the
// first Next has built the merge heap, advancing allocates nothing: a
// copy or a boxed source on the way out would tax every scanned entry.
func TestIteratorNextAddsNoAllocs(t *testing.T) {
	db := openScanStore(t, 4096)
	it := db.NewIterator()
	got := testing.AllocsPerRun(5000, func() {
		if !it.Next() {
			it.Seek(nil)
		}
	})
	if got != 0 {
		t.Fatalf("Iterator.Next allocates %.2f allocs/op, want 0", got)
	}
}

// A cross-shard batch is grouped by shard into one per-call op slice
// plus one offsets-and-stripe-set slice, whatever its size or shard
// count: a group per shard grown by append would cost an allocation or
// more per touched shard on every scan-batch write. The memtable puts
// add none while their buffers have room.
func TestShardedWriteAllocs(t *testing.T) {
	db := openMutexSharded(0)
	var b Batch
	for i := uint64(0); i < 8; i++ {
		b.Put(Key(i), []byte("value"))
	}
	if got := testing.AllocsPerRun(100, func() { db.Write(&b) }); got > 2 {
		t.Fatalf("8-key Write over 4 shards allocates %.0f times, want at most 2", got)
	}
}

// Opening a sharded iterator allocates its source list, its merge heap
// and the Iterator itself, and Seek and Next add nothing: the stripe
// set every snapshot locks is built once, by OpenSharded.
func TestShardedIteratorAllocs(t *testing.T) {
	db := openMutexSharded(4096)
	k := Key(0)
	got := testing.AllocsPerRun(100, func() {
		it := db.NewIterator()
		it.Seek(k)
		for i := 0; i < 32 && it.Next(); i++ {
		}
	})
	if got > 3 {
		t.Fatalf("NewIterator + Seek + 32 Next allocates %.0f times, want at most 3", got)
	}
}

// openMutexSharded opens a 4-shard store holding keys entries, in about
// seven memtables' worth per shard. Its locks are sync.Mutex so that an
// allocation count is the store's own: the default lock draws its
// queue elements from a sync.Pool, which the race detector empties at
// random.
func openMutexSharded(keys int) *ShardedDB {
	db := OpenSharded(ShardedOptions{
		Shards:        4,
		NewLock:       func() sync.Locker { return new(sync.Mutex) },
		MemTableBytes: keys * 80 / 4 / 7, // 0: the default
	})
	FillSeq(db, keys, 32)
	return db
}

// A run is pointer-free: keys, values, offsets, tombstones and the
// search index are a fixed set of arrays, so freezing a memtable and
// merging runs make as many heap allocations for 64 entries as for
// 4096. A regression to per-entry key or value slices fails here.
func TestRunAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) (build, merge float64) {
		older, newer := NewSkipList(), NewSkipList()
		for i := 0; i < n; i++ {
			older.Put(Key(uint64(i)), []byte{byte(i)})
			if i%3 == 0 {
				newer.Delete(Key(uint64(i)))
			} else if i%3 == 1 {
				newer.Put(Key(uint64(i)), []byte("newer"))
			}
		}
		runs := []*Run{buildRun(newer), buildRun(older)}
		build = testing.AllocsPerRun(20, func() { buildRun(older) })
		merge = testing.AllocsPerRun(20, func() { mergeRuns(runs) })
		return build, merge
	}
	b64, m64 := allocs(64)
	b4k, m4k := allocs(4096)
	if b64 != b4k || m64 != m4k {
		t.Fatalf("allocations grow with entries: buildRun %.0f at 64, %.0f at 4096; mergeRuns %.0f at 64, %.0f at 4096",
			b64, b4k, m64, m4k)
	}
}

// A memtable is one buffer: a put allocates only when the buffer
// grows, so filling a list with 4096 entries makes more allocations
// than filling one with 64 only by its extra growth steps, one each,
// and a put into a buffer with room allocates nothing. A return to
// per-entry heap objects fails here.
func TestMemTableAllocsOnlyOnGrowth(t *testing.T) {
	val := make([]byte, 100)
	k := Key(0)
	fill := func(sl *SkipList, n int) (growths int) {
		size := len(sl.buf)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(k[8:], uint64(i))
			sl.Put(k, val)
			if len(sl.buf) != size {
				growths, size = growths+1, len(sl.buf)
			}
		}
		return growths
	}
	// The fewest allocations of several fills: a fill that grows the
	// buffer may start a GC cycle, whose background allocations count
	// too, but never lowers the count.
	allocs := func(n int) (fewest uint64, growths int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		fewest = math.MaxUint64
		var before, after runtime.MemStats
		for rep := 0; rep < 8; rep++ {
			runtime.ReadMemStats(&before)
			growths = fill(newSkipList(defaultMemTableBytes), n)
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest, growths
	}
	a64, g64 := allocs(64)
	a4k, g4k := allocs(4096)
	if g4k <= g64 || a4k-a64 != uint64(g4k-g64) {
		t.Fatalf("filling 64 entries makes %d allocations over %d growths, 4096 make %d over %d: "+
			"want one more allocation per extra growth and none per entry", a64, g64, a4k, g4k)
	}

	sl := newSkipList(defaultMemTableBytes)
	i := uint64(0)
	got := testing.AllocsPerRun(100, func() {
		binary.BigEndian.PutUint64(k[8:], i/2) // an insert, then an overwrite
		sl.Put(k, val)
		i++
	})
	if got != 0 || len(sl.buf) != firstArena {
		t.Fatalf("a put into a buffer with room allocates %.2f times (buffer %d bytes)", got, len(sl.buf))
	}
}

// BenchmarkGetHotPath compares the same two paths under -bench with
// allocation reporting.
func BenchmarkGetHotPath(b *testing.B) {
	const keys = 2048
	for _, tc := range []struct {
		name string
		db   Store
	}{
		{"coarse", Open(Options{MemTableBytes: 64 << 10})},
		{"sharded8", OpenSharded(ShardedOptions{Shards: 8, MemTableBytes: 16 << 10})},
	} {
		FillSeq(tc.db, keys, 32)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			k := Key(0)
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(k[8:], uint64(i%keys))
				tc.db.Get(k)
			}
		})
	}
}
