package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// freeze freezes db's memtable into a run through the store's own
// freeze path, which compacts once the run stack outgrows MaxRuns.
func freeze(db *DB) {
	db.mu.Lock()
	limit := db.opts.MemTableBytes
	db.opts.MemTableBytes = 0
	db.maybeFreezeLocked()
	db.opts.MemTableBytes = limit
	db.mu.Unlock()
}

// model is the sorted-map reference the differential tests hold a
// store to.
type model map[string]string

// suffix renders up to n of the model's entries with key >= k in
// ascending key order; n < 0 takes them all.
func (m model) suffix(k []byte, n int) []string {
	var keys []string
	for key := range m {
		if key >= string(k) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	if n >= 0 && len(keys) > n {
		keys = keys[:n]
	}
	out := make([]string, len(keys))
	for i, key := range keys {
		out[i] = fmt.Sprintf("%x=%s", key, m[key])
	}
	return out
}

// take renders up to n further entries of it; n < 0 takes them all.
func take(it *Iterator, n int) []string {
	out := []string{}
	for ; n != 0 && it.Next(); n-- {
		out = append(out, fmt.Sprintf("%x=%s", it.Key(), it.Value()))
	}
	return out
}

// checkMerge holds db's iterator to m: a full scan, then Seeks on one
// iterator to random keys — present, absent and between two keys — so
// about half of them move backwards after some Next calls, and a final
// Seek back to the start.
func checkMerge(t *testing.T, db Store, m model, r *xrand.XorShift64, keyspace int) {
	t.Helper()
	if got, want := take(db.NewIterator(), -1), m.suffix(nil, -1); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan:\n got %v\nwant %v", got, want)
	}
	it := db.NewIterator()
	for i := 0; i < 40; i++ {
		k := Key(uint64(r.Intn(keyspace + 4)))
		if r.Intn(2) == 0 {
			k = append(k, 0) // between k and its successor
		}
		n := 1 + r.Intn(6)
		it.Seek(k)
		if got, want := take(it, n), m.suffix(k, n); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Seek(%x) then %d Next:\n got %v\nwant %v", k, n, got, want)
		}
	}
	it.Seek(nil)
	if got, want := take(it, -1), m.suffix(nil, -1); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Seek(nil) rescan:\n got %v\nwant %v", got, want)
	}
}

// A ShardedDB with MaxRuns 8 gives each shard up to nine sources: the
// merge must agree with a sorted-map model when one key has a version
// in every source, when the newest version is a tombstone, and across
// random writes, freezes and compactions.
func TestShardedIteratorMergeMatchesModel(t *testing.T) {
	const keyspace = 300
	db := OpenSharded(ShardedOptions{Shards: 4, MaxRuns: 8})
	m := model{}
	r := xrand.NewXorShift64(7)
	put := func(k []byte, v string) {
		db.Put(k, []byte(v))
		m[string(k)] = v
	}
	del := func(k []byte) {
		db.Delete(k)
		delete(m, string(k))
	}
	// background writes keys around k into every generation, so the
	// heap holds many sources with entries on both sides of k.
	background := func(gen string) {
		for i := 0; i < 60; i++ {
			put(Key(uint64(r.Intn(keyspace))), fmt.Sprintf("%s.%d", gen, i))
		}
	}
	freezeAll := func() {
		for _, sh := range db.shards {
			freeze(sh)
		}
	}
	k := Key(keyspace / 2)
	wantGet := func(want string, ok bool) {
		t.Helper()
		if v, found := db.Get(k); found != ok || string(v) != want {
			t.Fatalf("Get(%x) = %q,%v; want %q,%v", k, v, found, want, ok)
		}
	}

	// One key, a distinct version in three runs and the memtable.
	for _, gen := range []string{"run3", "run2", "run1"} {
		background(gen)
		put(k, gen)
		freezeAll()
	}
	background("mem")
	put(k, "mem")
	wantGet("mem", true)
	checkMerge(t, db, m, r, keyspace)
	freezeAll() // the newest version now heads the newest run
	checkMerge(t, db, m, r, keyspace)

	// A tombstone in the newest source hides every older live version,
	// first from the memtable, then from the newest run.
	del(k)
	wantGet("", false)
	checkMerge(t, db, m, r, keyspace)
	freezeAll()
	checkMerge(t, db, m, r, keyspace)
	put(k, "again")
	checkMerge(t, db, m, r, keyspace)
	if runs := db.shards[db.ShardIndex(k)].Runs(); runs != 5 {
		t.Fatalf("k's shard holds %d runs, want 5 (one per freeze)", runs)
	}

	// Random writes and deletes, freezing one shard or all of them,
	// until every shard has compacted at least once.
	for round := 0; round < 12; round++ {
		for i := 0; i < 40; i++ {
			key := Key(uint64(r.Intn(keyspace)))
			if r.Intn(4) == 0 {
				del(key)
			} else {
				put(key, fmt.Sprintf("r%d.%d", round, i))
			}
		}
		if r.Intn(3) == 0 {
			freeze(db.shards[r.Intn(len(db.shards))])
		} else {
			freezeAll()
		}
		checkMerge(t, db, m, r, keyspace)
	}
	for i := range db.shards {
		if db.ShardStats(i).Compactions == 0 {
			t.Fatalf("shard %d never compacted", i)
		}
	}
}

// Get and iterators return slices that alias the store's own memory,
// which is safe only because every write copies its key and value on
// the way in: a caller that reuses its buffers after Put or Batch.Put
// must not change what the store returns, from the memtable or a run.
func TestStoreCopiesWrittenBuffers(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   Store
	}{
		{"coarse", Open(Options{})},
		{"sharded", OpenSharded(ShardedOptions{Shards: 4})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db
			k1, v1 := []byte("key1"), []byte("val1")
			db.Put(k1, v1)
			var b Batch
			k2, v2 := []byte("key2"), []byte("val2")
			b.Put(k2, v2)
			copy(k2, "XXXX") // after Batch.Put, before Write
			copy(v2, "YYYY")
			k2, v2 = []byte("key3"), []byte("val3")
			b.Put(k2, v2)
			db.Write(&b)
			for _, buf := range [][]byte{k1, v1, k2, v2} {
				copy(buf, "ZZZZ")
			}
			check := func(where string) {
				t.Helper()
				for _, k := range []string{"key1", "key2", "key3"} {
					if v, ok := db.Get([]byte(k)); !ok || string(v) != "val"+k[3:] {
						t.Fatalf("%s: Get(%s) = %q,%v", where, k, v, ok)
					}
				}
				if got, want := fmt.Sprint(take(db.NewIterator(), -1)),
					fmt.Sprintf("[%x=val1 %x=val2 %x=val3]", "key1", "key2", "key3"); got != want {
					t.Fatalf("%s: iterator read %s, want %s", where, got, want)
				}
			}
			check("memtable")
			switch db := db.(type) {
			case *DB:
				freeze(db)
			case *ShardedDB:
				for _, sh := range db.shards {
					freeze(sh)
				}
			}
			check("run")
		})
	}
}

// A run's keys and values sit back to back in shared arenas, so every
// slice the store hands out is capacity-capped: appending to a value
// from Get, or to a key or value from an iterator, copies instead of
// overwriting the next entry, in the memtable and in a run alike.
func TestAppendToReturnedSlicesLeavesStore(t *testing.T) {
	db := Open(Options{})
	const n = 4
	want := model{}
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("val%d", i)
		db.Put(Key(uint64(i)), []byte(v))
		want[string(Key(uint64(i)))] = v
	}
	check := func(where string) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, _ := db.Get(Key(uint64(i)))
			if cap(v) != len(v) {
				t.Fatalf("%s: Get(%d) has cap %d, len %d", where, i, cap(v), len(v))
			}
			_ = append(v, "XXXX"...)
		}
		for it := db.NewIterator(); it.Next(); {
			if k, v := it.Key(), it.Value(); cap(k) != len(k) || cap(v) != len(v) {
				t.Fatalf("%s: iterator entry %x has key cap %d len %d, value cap %d len %d",
					where, k, cap(k), len(k), cap(v), len(v))
			}
			_ = append(it.Key(), 0xff)
			_ = append(it.Value(), "YYYY"...)
		}
		if got, w := take(db.NewIterator(), -1), want.suffix(nil, -1); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s: after appends the store reads %v, want %v", where, got, w)
		}
		for i := 0; i < n; i++ {
			if v, ok := db.Get(Key(uint64(i))); !ok || string(v) != fmt.Sprintf("val%d", i) {
				t.Fatalf("%s: after appends Get(%d) = %q,%v", where, i, v, ok)
			}
		}
	}
	check("memtable")
	freeze(db)
	check("run")
}

// openScanStore builds the scan-batch store shape: 4 shards holding
// keys sequential keys with 32-byte values, and at least two runs in
// every shard.
func openScanStore(tb testing.TB, keys int) *ShardedDB {
	// An entry charges about 80 bytes (16-byte key, value, 32 bytes of
	// node), so each shard fills about seven memtables.
	db := OpenSharded(ShardedOptions{Shards: 4, MemTableBytes: keys * 80 / 4 / 7})
	FillSeq(db, keys, 32)
	for i, sh := range db.shards {
		if n := sh.Runs(); n < 2 {
			tb.Fatalf("shard %d holds %d runs, want at least 2", i, n)
		}
	}
	return db
}

// BenchmarkIteratorScan prices the iterator layer alone in the
// scan-batch shape: open a snapshot over 4 shards of 64 Ki keys, Seek
// to a random key, then take 32 entries.
func BenchmarkIteratorScan(b *testing.B) {
	const keys = 1 << 16
	db := openScanStore(b, keys)
	r := xrand.NewXorShift64(1)
	k := Key(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[8:], uint64(r.Intn(keys-32)))
		it := db.NewIterator()
		it.Seek(k)
		for j := 0; j < 32; j++ {
			if !it.Next() {
				b.Fatalf("scan from %x ended early", k)
			}
		}
	}
}

// coldKey writes id i's 16-byte key, Key(i), to dst.
func coldKey(dst []byte, i uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst[:0], make([]byte, 8)...), i)
}

// coldRuns builds one shard of the cold-mixed store shape: a run of
// 256 Ki sequential keys, as compaction leaves it, and small newer
// runs of about 3.5 Ki random keys each, as frozen 512 KiB memtables
// leave them, newest first, all with 100-byte values. It returns the
// runs and the big run's key count.
func coldRuns(small int) ([]*Run, int) {
	const big, perRun = 1 << 18, 3500
	val := make([]byte, 100)
	r := xrand.NewXorShift64(1)
	var runs []*Run
	var k []byte
	for i := 0; i < small; i++ {
		sl := NewSkipList()
		for j := 0; j < perRun; j++ {
			k = coldKey(k, uint64(r.Intn(big)))
			sl.Put(k, val)
		}
		runs = append(runs, buildRun(sl))
	}
	// The big run is filled directly: a 256 Ki-entry memtable would
	// cost far more memory than the run itself.
	b := runBuilder{n: big, keyBytes: 16 * big, valBytes: len(val) * big,
		first: coldKey(nil, 0), last: coldKey(nil, big-1)}
	out := b.alloc(false)
	for i := 0; i < big; i++ {
		k = coldKey(k, uint64(i))
		out.add(k, val)
	}
	out.seal()
	return append(runs, out), big
}

// BenchmarkRunGet prices run search alone in the cold-mixed shape: a
// Get for a random present key searches three small runs, newest
// first, and then the big one.
func BenchmarkRunGet(b *testing.B) {
	runs, keys := coldRuns(3)
	r := xrand.NewXorShift64(2)
	var k []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = coldKey(k, uint64(r.Intn(keys)))
		found := false
		for _, run := range runs {
			if _, found, _ = run.Get(k); found {
				break
			}
		}
		if !found {
			b.Fatalf("present key %x not found", k)
		}
	}
}

// BenchmarkShardGet prices one shard's whole read path in the
// cold-mixed shape: every lookup goes through get, which probes the
// filters of a memtable of about 3.5 Ki random keys, three small runs
// and the big one, and searches only the sources they admit. Against
// BenchmarkRunGet, which searches every run until it finds the key, it
// shows what the filters skip.
func BenchmarkShardGet(b *testing.B) {
	runs, keys := coldRuns(3)
	mem := newSkipList(512 << 10)
	val := make([]byte, 100)
	r := xrand.NewXorShift64(3)
	var k []byte
	for mem.Bytes() < 512<<10 {
		k = coldKey(k, uint64(r.Intn(keys)))
		mem.Put(k, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = coldKey(k, uint64(r.Intn(keys)))
		if _, found := get(mem, runs, k); !found {
			b.Fatalf("present key %x not found", k)
		}
	}
}

// BenchmarkMergeRuns prices compaction in the cold-mixed shape: four
// small runs and the big one, the stack that exceeds the default
// MaxRuns, merged into one run under the shard's write lock. The merge
// copies whole stretches of entries, so it also reports their mean
// length, the input property its speed depends on: random overwrites
// scattered over the big run leave short stretches between them.
func BenchmarkMergeRuns(b *testing.B) {
	runs, _ := coldRuns(4)
	var entries, stretches int
	runMerger(runs).stretches(func(_ *Run, i, j int) {
		entries += j - i
		stretches++
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeRuns(runs)
	}
	b.ReportMetric(float64(entries)/float64(stretches), "entries/stretch")
}

// BenchmarkFill prices the fill behind kvperf's cold-mixed setup_s at
// the store layer: 4 shards with 512 KiB memtables take 1 Mi sequential
// keys with 100-byte values, freezing and compacting under each shard's
// write lock as they go. The freeze and compaction counts are reported
// beside the time, since they fix how much merging a fill does.
func BenchmarkFill(b *testing.B) {
	var st Stats
	for i := 0; i < b.N; i++ {
		db := OpenSharded(ShardedOptions{Shards: 4, MemTableBytes: 512 << 10})
		FillSeq(db, 1<<20, 100)
		st = db.Stats()
	}
	b.ReportMetric(float64(st.Freezes), "freezes")
	b.ReportMetric(float64(st.Compactions), "compactions")
}
