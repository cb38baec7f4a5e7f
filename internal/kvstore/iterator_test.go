package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestIteratorOrderedAcrossGenerations(t *testing.T) {
	db := Open(Options{MemTableBytes: 2 << 10, MaxRuns: 2})
	const n = 500
	// Insert in a scrambled order so entries span memtable + several
	// frozen/merged runs.
	for i := 0; i < n; i++ {
		k := (i * 7919) % n // 7919 prime, bijective mod n? ensure unique below
		db.Put(Key(uint64(k)), []byte(fmt.Sprintf("v%d", k)))
	}
	seen := map[string]bool{}
	it := db.NewIterator()
	var prev []byte
	count := 0
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("iterator out of order: %x then %x", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		seen[string(it.Key())] = true
		count++
	}
	_ = seen
	if count == 0 {
		t.Fatal("iterator yielded nothing")
	}
	// Every distinct inserted key appears exactly once.
	distinct := map[int]bool{}
	for i := 0; i < n; i++ {
		distinct[(i*7919)%n] = true
	}
	if count != len(distinct) {
		t.Fatalf("iterator yielded %d keys, want %d", count, len(distinct))
	}
}

func TestIteratorNewestWinsAndTombstones(t *testing.T) {
	db := Open(Options{MemTableBytes: 1 << 10, MaxRuns: 3})
	for i := 0; i < 100; i++ {
		db.Put(Key(uint64(i)), []byte("old"))
	}
	// Overwrite some, delete others — spanning freezes.
	for i := 0; i < 100; i += 4 {
		db.Put(Key(uint64(i)), []byte("new"))
	}
	for i := 2; i < 100; i += 4 {
		db.Delete(Key(uint64(i)))
	}
	got := map[uint64]string{}
	it := db.NewIterator()
	for it.Next() {
		var id uint64
		for _, b := range it.Key() {
			id = id<<8 | uint64(b)
		}
		got[id] = string(it.Value())
	}
	for i := uint64(0); i < 100; i++ {
		want, present := "old", true
		switch i % 4 {
		case 0:
			want = "new"
		case 2:
			present = false
		}
		v, ok := got[i]
		if ok != present || (present && v != want) {
			t.Fatalf("key %d: got %q,%v want %q,%v", i, v, ok, want, present)
		}
	}
}

func TestIteratorSeek(t *testing.T) {
	db := Open(Options{MemTableBytes: 1 << 10})
	for i := 0; i < 200; i += 2 { // even keys only
		db.Put(Key(uint64(i)), []byte("x"))
	}
	it := db.NewIterator()
	it.Seek(Key(101)) // odd: next live is 102
	if !it.Next() {
		t.Fatal("Seek exhausted iterator")
	}
	if !bytes.Equal(it.Key(), Key(102)) {
		t.Fatalf("Seek(101) → %x, want key 102", it.Key())
	}
	// Seek beyond the end.
	it.Seek(Key(10_000))
	if it.Next() {
		t.Fatal("Seek past end still yields entries")
	}
}

func TestIteratorEmptyDB(t *testing.T) {
	db := Open(Options{})
	if db.NewIterator().Next() {
		t.Fatal("empty DB iterator yielded an entry")
	}
}

// Property: the iterator agrees with a map model after arbitrary
// put/delete sequences.
func TestIteratorMatchesModel(t *testing.T) {
	err := quick.Check(func(ops []uint32) bool {
		db := Open(Options{MemTableBytes: 512, MaxRuns: 2})
		model := map[string]string{}
		for _, op := range ops {
			k := string(Key(uint64(op % 50)))
			if (op>>16)%4 == 3 {
				db.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", op)
				db.Put([]byte(k), []byte(v))
				model[k] = v
			}
		}
		var wantKeys []string
		for k := range model {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		it := db.NewIterator()
		var gotKeys []string
		for it.Next() {
			gotKeys = append(gotKeys, string(it.Key()))
			if model[string(it.Key())] != string(it.Value()) {
				return false
			}
		}
		if len(gotKeys) != len(wantKeys) {
			return false
		}
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// An iterator reads the store as it was when the iterator opened:
// writes made afterwards to the live memtable — an overwrite, a new
// key, a deletion — stay invisible to it. Single goroutine, so the
// check is deterministic for both store shapes.
func TestIteratorIgnoresLaterWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   Store
	}{
		{"coarse", Open(Options{})},
		{"sharded", OpenSharded(ShardedOptions{Shards: 4})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db
			db.Put([]byte("a"), []byte("old"))
			db.Put([]byte("c"), []byte("old"))
			it := db.NewIterator()
			db.Put([]byte("a"), []byte("new"))
			db.Put([]byte("b"), []byte("new"))
			db.Delete([]byte("c"))
			var got []string
			for it.Next() {
				got = append(got, string(it.Key())+"="+string(it.Value()))
			}
			if want := "[a=old c=old]"; fmt.Sprint(got) != want {
				t.Fatalf("iterator read %v, want %s", got, want)
			}
			got = got[:0]
			for it := db.NewIterator(); it.Next(); {
				got = append(got, string(it.Key())+"="+string(it.Value()))
			}
			if want := "[a=new b=new]"; fmt.Sprint(got) != want {
				t.Fatalf("fresh iterator read %v, want %s", got, want)
			}
		})
	}
}

// Seek honours the snapshot too: a key inserted after the iterator
// opened is skipped even when Seek lands on it.
func TestIteratorSeekIgnoresLaterInserts(t *testing.T) {
	db := Open(Options{})
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("c"), []byte("1"))
	it := db.NewIterator()
	db.Put([]byte("b"), []byte("2"))
	db.Put([]byte("c"), []byte("2"))
	it.Seek([]byte("b"))
	if !it.Next() || string(it.Key()) != "c" || string(it.Value()) != "1" {
		t.Fatalf("Seek(b) then Next = %q=%q, want c=1", it.Key(), it.Value())
	}
	if it.Next() {
		t.Fatalf("unexpected entry %q after c", it.Key())
	}
}

// Every write appends a record chained to the one it replaces, so each
// version stays readable at its own stamp while Get reads the newest,
// and Bytes charges exactly the arena bytes a write takes: a record on
// an overwrite, a node and a record on an insert. A value returned
// before the buffer grows keeps its bytes through later overwrites and
// growths, the aliasing contract on Store.Get.
func TestSkipListKeepsEveryVersion(t *testing.T) {
	sl := NewSkipList()
	k := []byte("k")
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1000+i%7) }
	at := func(snap uint64) (string, bool) {
		src := source{mem: sl, snap: snap}
		src.first()
		return string(src.val), src.valid && !src.tomb
	}

	before := sl.Bytes()
	sl.Put(k, val(0))
	a := sl.load()
	h := int(*(*uint32)(unsafe.Add(a.node(next(a.p, 0).Load()), 4)) >> 24) // the node's height
	if got, want := sl.Bytes()-before, nodeSize(h, len(k))+recordSize(len(val(0))); got != want {
		t.Fatalf("insert charged %d bytes, want node plus record %d", got, want)
	}
	stamps := []uint64{sl.snapshot()}
	v0, _, _ := sl.Get(k)
	held := [][]byte{v0}
	for i, growths := 1, 0; growths < 3; i++ {
		buf, before := &sl.buf[0], sl.Bytes()
		sl.Put(k, val(i))
		if got, want := sl.Bytes()-before, recordSize(len(val(i))); got != want {
			t.Fatalf("overwrite %d charged %d bytes, want its record's %d", i, got, want)
		}
		if &sl.buf[0] != buf {
			growths++
		}
		stamps = append(stamps, sl.snapshot())
		v, ok, tomb := sl.Get(k)
		if !ok || tomb || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get after overwrite %d = %d bytes, %v, %v; want the newest", i, len(v), ok, tomb)
		}
		held = append(held, v)
	}
	sl.Delete(k)
	if _, ok, tomb := sl.Get(k); !ok || !tomb {
		t.Fatalf("Get after Delete: found %v, tombstone %v", ok, tomb)
	}
	if _, live := at(sl.snapshot()); live {
		t.Fatal("the tombstone does not hide the key at its own stamp")
	}
	if _, live := at(0); live {
		t.Fatal("a version is visible before the first write")
	}
	for i, snap := range stamps {
		if v, live := at(snap); !live || v != string(val(i)) {
			t.Fatalf("stamp %d reads %d bytes (live %v), want version %d", snap, len(v), live, i)
		}
		if !bytes.Equal(held[i], val(i)) || cap(held[i]) != len(held[i]) {
			t.Fatalf("value %d changed after later writes and growths, or is uncapped", i)
		}
	}
}
