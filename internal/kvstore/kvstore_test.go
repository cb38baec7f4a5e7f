package kvstore

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/pad"
)

func TestSkipListBasics(t *testing.T) {
	sl := NewSkipList()
	if _, ok, _ := sl.Get([]byte("a")); ok {
		t.Fatal("empty list returned a value")
	}
	sl.Put([]byte("b"), []byte("2"))
	sl.Put([]byte("a"), []byte("1"))
	sl.Put([]byte("c"), []byte("3"))
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v, ok, tomb := sl.Get([]byte(k))
		if !ok || tomb || string(v) != want {
			t.Fatalf("Get(%q) = %q,%v,%v", k, v, ok, tomb)
		}
	}
	sl.Put([]byte("b"), []byte("22"))
	if v, _, _ := sl.Get([]byte("b")); string(v) != "22" {
		t.Fatal("update did not replace value")
	}
	if sl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sl.Len())
	}
	sl.Delete([]byte("a"))
	if _, ok, tomb := sl.Get([]byte("a")); !ok || !tomb {
		t.Fatal("tombstone not visible")
	}
}

func TestSkipListOrderedAscend(t *testing.T) {
	sl := NewSkipList()
	for i := 99; i >= 0; i-- {
		sl.Put(Key(uint64(i)), []byte{byte(i)})
	}
	var prev []byte
	n := 0
	sl.Ascend(func(k, v []byte, tomb bool) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("Ascend out of order: %x then %x", prev, k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != 100 {
		t.Fatalf("Ascend visited %d, want 100", n)
	}
}

func TestSkipListMatchesMapModel(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		sl := NewSkipList()
		model := map[string]string{}
		for _, op := range ops {
			k := fmt.Sprintf("k%03d", op%200)
			switch (op >> 8) % 3 {
			case 0, 1:
				v := fmt.Sprintf("v%d", op)
				sl.Put([]byte(k), []byte(v))
				model[k] = v
			case 2:
				sl.Delete([]byte(k))
				delete(model, k)
			}
		}
		for k, want := range model {
			v, ok, tomb := sl.Get([]byte(k))
			if !ok || tomb || string(v) != want {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// One writer + concurrent readers: the LevelDB memtable contract.
func TestSkipListConcurrentReadsDuringWrites(t *testing.T) {
	sl := NewSkipList()
	const n = 5000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				k := Key(i % n)
				v, ok, _ := sl.Get(k)
				if ok && len(v) != 1 {
					panic("torn value")
				}
				// A key a reader can reach must pass the filter, or
				// a Get that probes it first would skip the key.
				if ok && !sl.filter.mayContain(newProbe(k)) {
					panic(fmt.Sprintf("filter rules out reachable key %x", k))
				}
				i += 7
			}
		}()
	}
	for i := 0; i < n; i++ {
		sl.Put(Key(uint64(i)), []byte{byte(i)})
	}
	close(done)
	wg.Wait()
	for i := 0; i < n; i++ {
		if _, ok, _ := sl.Get(Key(uint64(i))); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

// Readers Get and iterate while the writer inserts and overwrites into
// a list whose buffer starts at its minimum, so it grows many times
// under them: every read must find a well-formed value for its key in
// whichever buffer it loaded, and an iteration must stay ascending.
// Under -race, checkptr checks every word view into the buffers.
func TestSkipListGrowsUnderReaders(t *testing.T) {
	sl := newSkipList(0)
	const n, rounds = 2000, 3
	// value i of key k holds k's id in its first byte, then i's.
	value := func(id, round int) []byte {
		return bytes.Repeat([]byte{byte(id), byte(round)}, 1+id%23)
	}
	wellFormed := func(k, v []byte) bool {
		id := int(k[15]) | int(k[14])<<8
		return len(v) == 2*(1+id%23) && v[0] == byte(id)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := uint64(r); ; i += 13 {
				select {
				case <-done:
					return
				default:
				}
				k := Key(i % n)
				if v, ok, _ := sl.Get(k); ok && !wellFormed(k, v) {
					panic(fmt.Sprintf("Get(%x) = %x", k, v))
				}
				src := source{mem: sl, snap: math.MaxUint64}
				var prev []byte
				src.seek(k)
				for j := 0; j < 16 && src.valid; j++ {
					if prev != nil && bytes.Compare(prev, src.key) >= 0 || !wellFormed(src.key, src.val) {
						panic(fmt.Sprintf("iteration read %x=%x after %x", src.key, src.val, prev))
					}
					prev = src.key
					src.next()
				}
			}
		}(r)
	}
	growths, size := 0, len(sl.buf)
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			sl.Put(Key(uint64(i*7%n)), value(i*7%n, round))
			if len(sl.buf) != size {
				growths, size = growths+1, len(sl.buf)
			}
		}
	}
	close(done)
	wg.Wait()
	if growths < 10 {
		t.Fatalf("the buffer grew %d times, want at least 10", growths)
	}
	for i := 0; i < n; i++ {
		if v, ok, _ := sl.Get(Key(uint64(i))); !ok || !bytes.Equal(v, value(i, rounds-1)) {
			t.Fatalf("key %d reads %x, %v", i, v, ok)
		}
	}
}

func TestRunBuildAndGet(t *testing.T) {
	sl := NewSkipList()
	for i := 0; i < 50; i++ {
		sl.Put(Key(uint64(i*2)), []byte{byte(i)})
	}
	sl.Delete(Key(10))
	r := buildRun(sl)
	if r.Len() != 50 {
		t.Fatalf("run len %d, want 50", r.Len())
	}
	if v, ok, tomb := r.Get(Key(4)); !ok || tomb || v[0] != 2 {
		t.Fatalf("run Get(4) = %v %v %v", v, ok, tomb)
	}
	if _, ok, tomb := r.Get(Key(10)); !ok || !tomb {
		t.Fatal("tombstone not preserved in run")
	}
	if _, ok, _ := r.Get(Key(5)); ok {
		t.Fatal("absent key found")
	}
}

func TestMergeRunsNewestWins(t *testing.T) {
	mk := func(kv map[int]string, dels ...int) *Run {
		sl := NewSkipList()
		for k, v := range kv {
			sl.Put(Key(uint64(k)), []byte(v))
		}
		for _, d := range dels {
			sl.Delete(Key(uint64(d)))
		}
		return buildRun(sl)
	}
	newest := mk(map[int]string{1: "new1", 3: "new3"}, 2)
	middle := mk(map[int]string{1: "mid1", 3: "mid3", 5: "mid5"}, 4)
	oldest := mk(map[int]string{1: "old1", 2: "old2", 4: "old4", 6: "old6"})
	merged := mergeRuns([]*Run{newest, middle, oldest})
	var got []string
	keyBytes, valBytes := 0, 0
	for i := 0; i < merged.Len(); i++ {
		k, v := merged.key(i), merged.val(i)
		if merged.tomb(i) {
			t.Fatalf("merged run keeps the tombstone at %x", k)
		}
		got = append(got, fmt.Sprintf("%d=%s", k[len(k)-1], v))
		keyBytes += len(k)
		valBytes += len(v)
	}
	// 1 and 3: newest wins; 2 and 4: a newer tombstone hides the older
	// value, and both go; 5 and 6: a key in one run survives.
	if want := "[1=new1 3=new3 5=mid5 6=old6]"; fmt.Sprint(got) != want {
		t.Fatalf("merged run %v, want %s", got, want)
	}
	// The sizing walk makes every array at its exact size, and a full
	// merge keeps no tombstone flags at all.
	n := len(got)
	if cap(merged.keys) != keyBytes || cap(merged.vals) != valBytes ||
		cap(merged.koff) != n+1 || cap(merged.voff) != n+1 || cap(merged.index) != n || merged.tombs != nil {
		t.Fatalf("merged run caps keys %d, vals %d, koff %d, voff %d, index %d, tombs %d; want %d, %d, %d, %d, %d, nil",
			cap(merged.keys), cap(merged.vals), cap(merged.koff), cap(merged.voff), cap(merged.index), cap(merged.tombs),
			keyBytes, valBytes, n+1, n+1, n)
	}
}

// Run offsets are 32-bit, so a run whose key or value arena would pass
// 4 GiB must refuse to build, with a message that says why, rather
// than wrap.
func TestRunArenaPast4GiBPanics(t *testing.T) {
	if uint64(math.MaxInt) <= math.MaxUint32 {
		t.Skip("int cannot count past 4 GiB on this platform")
	}
	for _, b := range []runBuilder{{n: 1, keyBytes: math.MaxInt}, {n: 1, valBytes: math.MaxInt}} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "exceeds 4 GiB") {
					t.Errorf("alloc for %d key bytes, %d value bytes: recovered %v, want the 4 GiB panic",
						b.keyBytes, b.valBytes, r)
				}
			}()
			b.alloc(false)
		}()
	}
}

func TestDBPutGetDelete(t *testing.T) {
	db := Open(Options{})
	db.Put([]byte("k"), []byte("v"))
	if v, ok := db.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	db.Delete([]byte("k"))
	if _, ok := db.Get([]byte("k")); ok {
		t.Fatal("deleted key visible")
	}
	s := db.Stats()
	if s.Puts != 1 || s.Deletes != 1 || s.Gets != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// Every Get bumps a read counter, and every Get loads mem and runs, so
// the counters must never share a 64-byte line with them, nor with the
// next heap object, wherever the DB starts: a full line of padding on
// each side of them guarantees that.
func TestReadCountersOwnCacheLine(t *testing.T) {
	var db DB
	snapEnd := unsafe.Offsetof(db.runs) + unsafe.Sizeof(db.runs)
	first, last := unsafe.Offsetof(db.hits), unsafe.Offsetof(db.misses)+unsafe.Sizeof(db.misses)
	if first-snapEnd < pad.CacheLineSize || unsafe.Sizeof(db)-last < pad.CacheLineSize {
		t.Fatalf("read counters at [%d, %d), snapshot fields end at %d, DB is %d bytes", first, last, snapEnd, unsafe.Sizeof(db))
	}
}

// Freezing and compaction must preserve the full dataset.
func TestDBFreezeAndCompact(t *testing.T) {
	db := Open(Options{MemTableBytes: 4 << 10, MaxRuns: 2})
	const n = 2000
	FillSeq(db, n, 64)
	if db.Stats().Freezes == 0 {
		t.Fatal("no freezes despite tiny memtable")
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compactions despite MaxRuns=2")
	}
	for i := 0; i < n; i++ {
		if v, ok := db.Get(Key(uint64(i))); !ok || len(v) != 64 {
			t.Fatalf("key %d missing after freeze/compact", i)
		}
	}
	// Overwrites and deletes spanning generations.
	db.Put(Key(5), []byte("fresh"))
	db.Delete(Key(6))
	if v, ok := db.Get(Key(5)); !ok || string(v) != "fresh" {
		t.Fatal("overwrite lost")
	}
	if _, ok := db.Get(Key(6)); ok {
		t.Fatal("delete lost")
	}
}

func TestDBMatchesMapModel(t *testing.T) {
	err := quick.Check(func(ops []uint32) bool {
		db := Open(Options{MemTableBytes: 1 << 10, MaxRuns: 2})
		model := map[string]string{}
		for _, op := range ops {
			k := string(Key(uint64(op % 100)))
			switch (op >> 16) % 4 {
			case 0, 1, 2:
				v := fmt.Sprintf("v%d", op)
				db.Put([]byte(k), []byte(v))
				model[k] = v
			case 3:
				db.Delete([]byte(k))
				delete(model, k)
			}
		}
		for k, want := range model {
			v, ok := db.Get([]byte(k))
			if !ok || string(v) != want {
				return false
			}
		}
		for i := 100; i < 110; i++ {
			if _, ok := db.Get(Key(uint64(i))); ok {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// The Figure 3 scenario end to end, with different lock algorithms
// guarding the store.
func TestReadRandomUnderVariousLocks(t *testing.T) {
	for _, lk := range []struct {
		name string
		mk   func() sync.Locker
	}{
		{"Recipro", nil},
		{"TKT", func() sync.Locker { return new(locks.TicketLock) }},
		{"MCS", func() sync.Locker { return new(locks.MCSLock) }},
	} {
		lk := lk
		t.Run(lk.name, func(t *testing.T) {
			opts := Options{MemTableBytes: 32 << 10}
			if lk.mk != nil {
				opts.Lock = lk.mk()
			}
			db := Open(opts)
			FillSeq(db, 2000, 100)
			res := ReadRandom(db, ReadRandomConfig{
				Threads: 4, Keyspace: 2500, OpsPerThread: 2000, Seed: 9,
			})
			if res.Ops != 4*2000 {
				t.Fatalf("ops = %d", res.Ops)
			}
			// 2000 of 2500 keys exist: hit rate should be near 80%.
			rate := float64(res.Hits) / float64(res.Ops)
			if rate < 0.75 || rate > 0.85 {
				t.Fatalf("hit rate %.3f, want ≈0.80", rate)
			}
			if res.Mops <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

func TestReadWhileWriting(t *testing.T) {
	db := Open(Options{MemTableBytes: 16 << 10})
	FillSeq(db, 3000, 64)
	cfg := ReadRandomConfig{Threads: 3, Keyspace: 3000, OpsPerThread: 3000, Seed: 4}
	w := ReadWhileWritingWorkload(func(harness.RunInfo) Store { return db }, cfg, 64)
	m := harness.Measure(w, harness.Config{Threads: 3, Iterations: 3000, Runs: 1, Seed: 4})
	res := resultFromMeasurement(m)
	if res.Ops != 3*3000 {
		t.Fatalf("reader ops = %d", res.Ops)
	}
	if m.MedianOutcome().Extras["writer_ops"] == 0 {
		t.Fatal("writer made no progress while readers ran")
	}
	// All keys remain visible (overwrites only).
	for i := 0; i < 3000; i++ {
		if _, ok := db.Get(Key(uint64(i))); !ok {
			t.Fatalf("key %d lost during readwhilewriting", i)
		}
	}
}

// Concurrent writers and readers under the coarse lock.
func TestDBConcurrentMixedWorkload(t *testing.T) {
	db := Open(Options{MemTableBytes: 8 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				db.Put(Key(uint64(w*3000+i)), []byte("x"))
			}
		}()
	}
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				db.Get(Key(uint64((r*7 + i) % 6000)))
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 6000; i++ {
		if _, ok := db.Get(Key(uint64(i))); !ok {
			t.Fatalf("key %d lost under concurrency", i)
		}
	}
}
