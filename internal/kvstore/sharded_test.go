package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// keyForShard returns a key owned by shard want (probing the dense
// Key space; the FNV hash spreads it well enough that a few probes
// suffice).
func keyForShard(s *ShardedDB, want int, from uint64) ([]byte, uint64) {
	for u := from; ; u++ {
		k := Key(u)
		if s.ShardIndex(k) == want {
			return k, u + 1
		}
	}
}

func TestShardedBasicOps(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := OpenSharded(ShardedOptions{Shards: shards, MemTableBytes: 512, MaxRuns: 2})
			if db.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", db.NumShards(), shards)
			}
			const n = 500
			for i := 0; i < n; i++ {
				db.Put(Key(uint64(i)), []byte(fmt.Sprintf("v%d", i)))
			}
			for i := 0; i < n; i++ {
				v, ok := db.Get(Key(uint64(i)))
				if !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%d) = %q,%v", i, v, ok)
				}
			}
			for i := 0; i < n; i += 3 {
				db.Delete(Key(uint64(i)))
			}
			for i := 0; i < n; i++ {
				_, ok := db.Get(Key(uint64(i)))
				if want := i%3 != 0; ok != want {
					t.Fatalf("after delete, Get(%d) ok=%v want %v", i, ok, want)
				}
			}
			st := db.Stats()
			if st.Puts != n || st.Gets != 2*n {
				t.Fatalf("stats = %+v, want %d puts / %d gets", st, n, 2*n)
			}
			if st.Freezes == 0 {
				t.Fatalf("tiny memtables never froze: %+v", st)
			}
		})
	}
}

// The sharded store must agree with the coarse store op for op —
// shard count is a locking decision, not a semantics decision.
func TestShardedMatchesCoarse(t *testing.T) {
	coarse := Open(Options{MemTableBytes: 1 << 10, MaxRuns: 2})
	sharded := OpenSharded(ShardedOptions{Shards: 8, MemTableBytes: 256, MaxRuns: 2})
	rng := xrand.NewXorShift64(42)
	for i := 0; i < 4000; i++ {
		k := Key(uint64(rng.Intn(128)))
		switch rng.Intn(5) {
		case 0, 1:
			v := []byte(fmt.Sprintf("v%d", i))
			coarse.Put(k, v)
			sharded.Put(k, v)
		case 2:
			coarse.Delete(k)
			sharded.Delete(k)
		case 3:
			var b Batch
			for j := 0; j < int(rng.Intn(6)); j++ {
				b.Put(Key(uint64(rng.Intn(128))), []byte(fmt.Sprintf("b%d.%d", i, j)))
			}
			coarse.Write(&b)
			sharded.Write(&b)
		default:
			cv, cok := coarse.Get(k)
			sv, sok := sharded.Get(k)
			if cok != sok || !bytes.Equal(cv, sv) {
				t.Fatalf("op %d: Get(%x) diverged: coarse %q,%v sharded %q,%v", i, k, cv, cok, sv, sok)
			}
		}
	}
	// Full-keyspace sweep plus iterator agreement.
	ci, si := coarse.NewIterator(), sharded.NewIterator()
	for {
		cn, sn := ci.Next(), si.Next()
		if cn != sn {
			t.Fatalf("iterator length mismatch: coarse %v sharded %v", cn, sn)
		}
		if !cn {
			break
		}
		if !bytes.Equal(ci.Key(), si.Key()) || !bytes.Equal(ci.Value(), si.Value()) {
			t.Fatalf("iterator diverged: coarse %x=%q sharded %x=%q",
				ci.Key(), ci.Value(), si.Key(), si.Value())
		}
	}
}

// A multi-key batch is atomic with respect to iterator snapshots:
// every key the batch wrote carries the same generation tag in any
// snapshot, no matter how the batch straddles shards.
func TestShardedBatchAtomicSnapshot(t *testing.T) {
	const shards = 8
	db := OpenSharded(ShardedOptions{Shards: shards, MemTableBytes: 2 << 10, MaxRuns: 2})

	// One key per shard, so every batch is maximally cross-shard.
	group := make([][]byte, shards)
	next := uint64(0)
	for s := 0; s < shards; s++ {
		group[s], next = keyForShard(db, s, next)
	}
	write := func(gen uint64) {
		var b Batch
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], gen)
		for _, k := range group {
			b.Put(k, v[:])
		}
		db.Write(&b)
	}
	write(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := uint64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
				write(gen)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		it := db.NewIterator()
		seen := map[uint64]int{}
		found := 0
		for it.Next() {
			for _, k := range group {
				if bytes.Equal(it.Key(), k) {
					seen[binary.BigEndian.Uint64(it.Value())]++
					found++
				}
			}
		}
		if found != shards {
			t.Fatalf("snapshot %d: found %d of %d group keys", i, found, shards)
		}
		if len(seen) != 1 {
			t.Fatalf("snapshot %d observed a torn batch: generations %v", i, seen)
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardedIteratorSeek(t *testing.T) {
	db := OpenSharded(ShardedOptions{Shards: 4, MemTableBytes: 512, MaxRuns: 2})
	for i := 0; i < 200; i++ {
		db.Put(Key(uint64(i)), []byte{byte(i)})
	}
	it := db.NewIterator()
	it.Seek(Key(100))
	if !it.Next() {
		t.Fatal("Seek(100): no entry")
	}
	if !bytes.Equal(it.Key(), Key(100)) {
		t.Fatalf("Seek(100) landed on %x", it.Key())
	}
	n := 1
	for it.Next() {
		n++
	}
	if n != 100 {
		t.Fatalf("entries from 100: %d, want 100", n)
	}
}

// Hash partitioning must be total and stable: every key maps to
// exactly one in-range shard, and ShardIndex agrees with where Put
// actually stored the key.
func TestShardIndexPartition(t *testing.T) {
	db := OpenSharded(ShardedOptions{Shards: 5, MemTableBytes: 64 << 10})
	counts := make([]int, 5)
	for i := 0; i < 2000; i++ {
		k := Key(uint64(i))
		si := db.ShardIndex(k)
		if si < 0 || si >= 5 {
			t.Fatalf("ShardIndex(%x) = %d out of range", k, si)
		}
		counts[si]++
		db.Put(k, []byte("x"))
		if got := db.ShardStats(si).Puts; got == 0 {
			t.Fatalf("key %x claimed by shard %d but shard has no puts", k, si)
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys out of 2000 (broken hash spread): %v", s, counts)
		}
	}
	var total uint64
	for s := 0; s < 5; s++ {
		total += db.ShardStats(s).Puts
	}
	if total != 2000 {
		t.Fatalf("per-shard puts sum to %d, want 2000", total)
	}
}
