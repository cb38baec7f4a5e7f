package kvstore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

func TestBatchBasics(t *testing.T) {
	db := Open(Options{})
	var b Batch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	db.Write(&b)
	if _, ok := db.Get([]byte("a")); ok {
		t.Fatal("in-batch delete did not shadow earlier put")
	}
	if v, ok := db.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("b = %q,%v", v, ok)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	db.Write(&b) // empty write is a no-op
	s := db.Stats()
	if s.Puts != 2 || s.Deletes != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBatchIsReusableAndIsolated(t *testing.T) {
	db := Open(Options{})
	var b Batch
	key := []byte("k")
	val := []byte("v1")
	b.Put(key, val)
	// Mutating the caller's slices after queueing must not corrupt
	// the batch (defensive copies).
	val[1] = 'X'
	key[0] = 'z'
	db.Write(&b)
	if v, ok := db.Get([]byte("k")); !ok || string(v) != "v1" {
		t.Fatalf("k = %q,%v (batch aliased caller memory)", v, ok)
	}
}

func TestBatchCrossesFreezeBoundary(t *testing.T) {
	db := Open(Options{MemTableBytes: 2 << 10, MaxRuns: 2})
	for round := 0; round < 20; round++ {
		var b Batch
		for i := 0; i < 50; i++ {
			b.Put(Key(uint64(round*50+i)), []byte(fmt.Sprintf("v%d", round*50+i)))
		}
		db.Write(&b)
	}
	if db.Stats().Freezes == 0 {
		t.Fatal("expected freezes with tiny memtable")
	}
	for i := 0; i < 1000; i++ {
		v, ok := db.Get(Key(uint64(i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d = %q,%v", i, v, ok)
		}
	}
}

func TestConcurrentBatchWriters(t *testing.T) {
	db := Open(Options{MemTableBytes: 8 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				var b Batch
				for i := 0; i < 20; i++ {
					b.Put(Key(uint64(w*10000+round*20+i)), []byte("x"))
				}
				db.Write(&b)
			}
		}()
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		for i := 0; i < 1000; i++ {
			if _, ok := db.Get(Key(uint64(w*10000 + i))); !ok {
				t.Fatalf("writer %d key %d lost", w, i)
			}
		}
	}
}

func BenchmarkDBPutSingle(b *testing.B) {
	db := Open(Options{})
	val := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Put(Key(uint64(i%10000)), val)
	}
}

func BenchmarkDBWriteBatch100(b *testing.B) {
	db := Open(Options{})
	val := make([]byte, 100)
	b.ReportAllocs()
	var batch Batch
	for i := 0; i < b.N; i++ {
		if batch.Len() < 100 {
			batch.Put(Key(uint64(i%10000)), val)
			continue
		}
		db.Write(&batch)
		batch.Reset()
	}
	db.Write(&batch)
}

func BenchmarkDBGet(b *testing.B) {
	db := Open(Options{})
	FillSeq(db, 10000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(Key(uint64(i % 10000)))
	}
}

// BenchmarkSkipListGet prices a memtable lookup in hot-get's shape:
// 4096 keys with 100-byte values in one list, read at random.
func BenchmarkSkipListGet(b *testing.B) {
	const keys = 4096
	sl := NewSkipList()
	val := make([]byte, 100)
	for i := 0; i < keys; i++ {
		sl.Put(Key(uint64(i)), val)
	}
	r := xrand.NewXorShift64(5)
	k := Key(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(k[8:], uint64(r.Intn(keys)))
		if _, ok, _ := sl.Get(k); !ok {
			b.Fatalf("present key %x not found", k)
		}
	}
}

// BenchmarkMemTablePut prices the memtable write in one scan-batch
// shard's shape: random overwrites of 16 Ki keys with 100-byte values
// into a list with a 1 MiB budget, replaced by a fresh one whenever it
// reaches the budget, as a freeze would.
func BenchmarkMemTablePut(b *testing.B) {
	const keys, budget = 16 << 10, 1 << 20
	sl := newSkipList(budget)
	val := make([]byte, 100)
	r := xrand.NewXorShift64(6)
	k := Key(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sl.Bytes() >= budget {
			sl = newSkipList(budget)
		}
		binary.BigEndian.PutUint64(k[8:], uint64(r.Intn(keys)))
		sl.Put(k, val)
	}
}

func BenchmarkIteratorFullScan(b *testing.B) {
	db := Open(Options{MemTableBytes: 64 << 10})
	FillSeq(db, 5000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.NewIterator()
		n := 0
		for it.Next() {
			n++
		}
		if n != 5000 {
			b.Fatalf("scan saw %d", n)
		}
	}
}
