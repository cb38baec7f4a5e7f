package kvstore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/lockstat"
	"repro/internal/registry"
	"repro/internal/rwlock"
)

// buildLock builds a catalog lock for a test store.
func buildLock(t testing.TB, name string, opts ...registry.Option) sync.Locker {
	t.Helper()
	l, err := registry.Build(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Open and OpenSharded must route Get and iterator snapshots through
// the configured lock's read side: RLock exactly when the lock shares
// readers, even behind the registry decorator, and the exclusive lock
// otherwise. The counts are exact: a Get is two episodes on its
// shard's lock, a snapshot one episode per shard.
func TestOpenResolvesSharedReadSurface(t *testing.T) {
	const shards = 4
	for _, tc := range []struct {
		lock   string
		shared bool
	}{{"rw:Recipro", true}, {"Recipro", false}} {
		for _, n := range []int{1, shards} {
			tc, n := tc, n
			t.Run(fmt.Sprintf("%s/shards=%d", tc.lock, n), func(t *testing.T) {
				st := lockstat.New()
				mk := func() sync.Locker { return buildLock(t, tc.lock, registry.WithStats(st)) }
				var s Store
				if n == 1 {
					s = Open(Options{Lock: mk()})
				} else {
					s = OpenSharded(ShardedOptions{Shards: n, NewLock: mk})
				}
				s.Get(Key(0))
				s.NewIterator()

				snap := st.Snapshot()
				read, excl := snap.RLocks, snap.Acquisitions
				if !tc.shared {
					read, excl = excl, read
				}
				if want := uint64(2 + n); read != want || excl != 0 {
					t.Fatalf("one Get and one snapshot: RLocks=%d Acquisitions=%d, want %d read-side (shared=%v) and 0 of the other kind",
						snap.RLocks, snap.Acquisitions, want, tc.shared)
				}
			})
		}
	}
}

// The shared read path must agree with the exclusive one: same
// results, same counters, under concurrent readers and writers (the
// race tier runs this with -race, which checks the RW adapter's
// happens-before edges around the snapshot).
func TestSharedGetMatchesExclusive(t *testing.T) {
	const keys = 512
	db := Open(Options{Lock: buildLock(t, "rw:Recipro"), MemTableBytes: 16 << 10})
	FillSeq(db, keys, 32)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		val := []byte("overwrite")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Put(Key(uint64(i%keys)), val)
		}
	}()
	const readers, per = 4, 2000
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64((i + r) % (2 * keys))
				v, ok := db.Get(Key(k))
				if k < keys {
					if !ok {
						// Every key < keys is live (Put only overwrites).
						panic("shared Get missed a live key")
					}
					_ = v
				} else if ok {
					panic("shared Get found a never-written key")
				}
			}
		}(r)
	}
	close(stop)
	wg.Wait()

	st := db.Stats()
	if st.Gets != readers*per {
		t.Fatalf("Gets = %d, want %d", st.Gets, readers*per)
	}
	if st.Hits+st.Misses != st.Gets {
		t.Fatalf("Hits(%d)+Misses(%d) != Gets(%d)", st.Hits, st.Misses, st.Gets)
	}
}

// The sharded iterator snapshot runs on the stripe table's read sides,
// which share for rw:Recipro shards; the snapshot must still be atomic
// with respect to cross-shard batches.
func TestShardedSharedSnapshotExcludesBatches(t *testing.T) {
	s := OpenSharded(ShardedOptions{
		Shards:        4,
		NewLock:       func() sync.Locker { return buildLock(t, "rw:Recipro") },
		MemTableBytes: 16 << 10,
	})
	// Batches write the same value to one key per shard; a snapshot
	// must never observe a torn batch (mixed generations).
	keys := make([][]byte, s.NumShards())
	seen := 0
	for i := 0; seen < len(keys); i++ {
		k := Key(uint64(i))
		if si := s.ShardIndex(k); keys[si] == nil {
			keys[si] = k
			seen++
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var gen uint64
		val := make([]byte, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			binary.BigEndian.PutUint64(val, gen)
			b := &Batch{}
			for _, k := range keys {
				b.Put(k, val)
			}
			s.Write(b)
		}
	}()
	for i := 0; i < 200; i++ {
		it := s.NewIterator()
		var first []byte
		matched := 0
		for it.Next() {
			for _, k := range keys {
				if string(it.Key()) == string(k) {
					if first == nil {
						first = append([]byte(nil), it.Value()...)
					} else if string(it.Value()) != string(first) {
						close(stop)
						wg.Wait()
						t.Fatalf("snapshot observed a torn cross-shard batch: %x vs %x", first, it.Value())
					}
					matched++
				}
			}
		}
		if matched != 0 && matched != len(keys) {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot saw %d of %d batch keys", matched, len(keys))
		}
	}
	close(stop)
	wg.Wait()
}

// The shared-read Get path must stay allocation-free, like the
// exclusive path it replaces: the RW adapter's read fast path is two
// atomic loads and an add, and the stats episode is atomic counters.
func TestSharedGetAddsNoAllocs(t *testing.T) {
	const keys = 2048
	db := Open(Options{Lock: buildLock(t, "rw:Recipro"), MemTableBytes: 64 << 10})
	FillSeq(db, keys, 32)
	i := uint64(0)
	k := Key(0)
	if n := testing.AllocsPerRun(2000, func() {
		binary.BigEndian.PutUint64(k[8:], i%keys)
		db.Get(k)
		i++
	}); n > 0 {
		t.Fatalf("shared Get hot path allocates %.2f allocs/op, want 0", n)
	}
}

// The bench harness's read-fraction knob must actually mix writes into
// the loop — on both the shared-read store and the exclusive one — and
// keep the op accounting exact in deterministic mode.
func TestReadRandomReadFracMixes(t *testing.T) {
	for _, lockName := range []string{"rw:Recipro", ""} {
		lockName := lockName
		name := lockName
		if name == "" {
			name = "default-exclusive"
		}
		t.Run(name, func(t *testing.T) {
			var l sync.Locker
			if lockName != "" {
				l = buildLock(t, lockName)
			}
			db := Open(Options{Lock: l, MemTableBytes: 64 << 10})
			FillSeq(db, 1000, 32)
			res := ReadRandom(db, ReadRandomConfig{
				Threads:      2,
				Keyspace:     1000,
				OpsPerThread: 2000,
				ReadFrac:     0.9,
				Seed:         7,
			})
			if res.Ops != 2*2000 {
				t.Fatalf("ops = %d, want %d", res.Ops, 2*2000)
			}
			st := db.Stats()
			if st.Puts <= 1000 {
				t.Fatalf("Puts = %d: read-frac mix performed no writes beyond the fill", st.Puts)
			}
			if st.Gets == 0 || st.Gets+st.Puts-1000 != res.Ops {
				t.Fatalf("Gets(%d) + mixed Puts(%d) != ops(%d)", st.Gets, st.Puts-1000, res.Ops)
			}
		})
	}
}

// Interface pin: the combinators built through the registry satisfy
// the store's shared-read requirements end to end.
var _ rwlock.RWLocker = (*rwlock.RW)(nil)
