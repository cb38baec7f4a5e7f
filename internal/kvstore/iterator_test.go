package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
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

// An overwrite keeps the old value only when a snapshot may still read
// it, and a kept value counts towards Bytes, so the freeze threshold
// bounds what open iterators retain.
func TestSkipListKeepsOnlyPinnedVersions(t *testing.T) {
	sl := NewSkipList()
	k := []byte("k")
	versions := func() int {
		var preds [maxHeight]*slNode
		n := 0
		for o := sl.findPredecessors(k, &preds).old.Load(); o != nil; o = o.prev {
			n++
		}
		return n
	}
	sl.Put(k, []byte("v1"))
	sl.Put(k, []byte("v2"))
	before := sl.Bytes()
	if n := versions(); n != 0 {
		t.Fatalf("unpinned overwrite kept %d old versions", n)
	}
	snap := sl.snapshot()
	sl.Put(k, []byte("v3"))
	sl.Put(k, []byte("v4"))
	if n := versions(); n != 1 {
		t.Fatalf("kept %d old versions after a snapshot, want 1 (v2)", n)
	}
	if got, want := sl.Bytes(), before+len("v3")+32; got != want {
		t.Fatalf("Bytes = %d, want %d (kept version charged once)", got, want)
	}
	var preds [maxHeight]*slNode
	if b := sl.findPredecessors(k, &preds).visible(snap); string(b.data) != "v2" {
		t.Fatalf("snapshot reads %q, want v2", b.data)
	}
	if v, _, _ := sl.Get(k); string(v) != "v4" {
		t.Fatalf("Get = %q, want v4", v)
	}
}
