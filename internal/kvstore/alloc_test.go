package kvstore

import (
	"encoding/binary"
	"testing"
)

// The sharded Get hot path — hash → shard → lock → lookup — must add
// zero allocations over the coarse path: the shard routing is pure
// arithmetic over the key bytes, and both paths share the same
// snapshot-then-search read protocol. A regression here (a hash that
// boxes, an interface conversion in shard()) would tax every read in
// every shard sweep.
func TestShardedGetAddsNoAllocs(t *testing.T) {
	const keys = 2048
	coarse := Open(Options{MemTableBytes: 64 << 10})
	sharded := OpenSharded(ShardedOptions{Shards: 8, MemTableBytes: 16 << 10})
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
