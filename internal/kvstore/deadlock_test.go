package kvstore

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// recordingLocker appends its shard index to a shared sequence on
// every acquisition. With a single goroutine driving the store the
// sequence is deterministic, so tests can assert the exact
// acquisition order the stripe table produced.
type recordingLocker struct {
	mu    sync.Mutex
	shard int
	seq   *[]int
	seqMu *sync.Mutex
}

func (r *recordingLocker) Lock() {
	r.mu.Lock()
	r.seqMu.Lock()
	*r.seq = append(*r.seq, r.shard)
	r.seqMu.Unlock()
}

func (r *recordingLocker) Unlock() { r.mu.Unlock() }

// newRecordingDB builds a sharded store whose acquisitions are
// recorded, exploiting the documented NewLock call order (shard 0
// first) to label each lock with its shard index.
func newRecordingDB(shards int) (*ShardedDB, *[]int, *sync.Mutex) {
	seq := &[]int{}
	seqMu := &sync.Mutex{}
	next := 0
	db := OpenSharded(ShardedOptions{
		Shards:        shards,
		MemTableBytes: 64 << 10,
		NewLock: func() sync.Locker {
			l := &recordingLocker{shard: next, seq: seq, seqMu: seqMu}
			next++
			return l
		},
	})
	return db, seq, seqMu
}

// TestStripeCanonicalOrder pins the deadlock-freedom discipline
// directly: however a batch's keys are ordered, the stripe table
// acquires the involved shard locks in ascending shard order, and a
// non-ascending set panics rather than risking an inversion.
func TestStripeCanonicalOrder(t *testing.T) {
	const shards = 8
	db, seq, seqMu := newRecordingDB(shards)

	// Craft a batch whose insertion order visits shards descending —
	// the worst case for a naive in-order acquirer.
	keys := make([][]byte, shards)
	next := uint64(0)
	for s := 0; s < shards; s++ {
		keys[s], next = keyForShard(db, s, next)
	}
	var b Batch
	for s := shards - 1; s >= 0; s-- {
		b.Put(keys[s], []byte("v"))
	}
	*seq = (*seq)[:0]
	db.Write(&b)

	seqMu.Lock()
	got := append([]int(nil), *seq...)
	seqMu.Unlock()
	if len(got) != shards {
		t.Fatalf("batch acquired %d locks, want %d: %v", len(got), shards, got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("acquisition order not canonical ascending: %v", got)
		}
	}

	// Iterator snapshots obey the same discipline.
	*seq = (*seq)[:0]
	db.NewIterator()
	seqMu.Lock()
	got = append([]int(nil), *seq...)
	seqMu.Unlock()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("iterator acquisition order not canonical ascending: %v", got)
		}
	}

	// The enforcement itself: an out-of-order set must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("lockSet accepted a non-ascending stripe set")
			}
		}()
		db.table.write.lockSet([]int{2, 1})
	}()
}

// TestShardedBatchNoDeadlock is the ordering regression stress:
// goroutines fire multi-key batches over overlapping, randomly
// ordered shard subsets — plus iterator snapshots, which take every
// stripe — under a stall watchdog. Any ordering bug deadlocks a pair
// of batches; the watchdog then dumps all stacks and fails instead of
// hanging the suite. Run it under -race via `make race`.
func TestShardedBatchNoDeadlock(t *testing.T) {
	const (
		shards     = 8
		workers    = 8
		iters      = 400
		watchdogue = 60 * time.Second
	)
	db := OpenSharded(ShardedOptions{Shards: shards, MemTableBytes: 4 << 10, MaxRuns: 2})

	// One key per shard so a batch's shard subset is chosen exactly.
	keys := make([][]byte, shards)
	next := uint64(0)
	for s := 0; s < shards; s++ {
		keys[s], next = keyForShard(db, s, next)
	}

	var ops atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewXorShift64(0xdead10c + uint64(g)*0x9e3779b97f4a7c15)
			for i := 0; i < iters; i++ {
				switch rng.Intn(8) {
				case 0:
					// Full-snapshot iterator competes for every stripe.
					it := db.NewIterator()
					it.Next()
				default:
					// 2–5 distinct shards in random insertion order
					// (Fisher–Yates; xrand has no Perm).
					n := 2 + rng.Intn(4)
					perm := make([]int, shards)
					for p := range perm {
						perm[p] = p
					}
					for p := shards - 1; p > 0; p-- {
						q := rng.Intn(p + 1)
						perm[p], perm[q] = perm[q], perm[p]
					}
					var b Batch
					for _, s := range perm[:n] {
						b.Put(keys[s], []byte(fmt.Sprintf("g%d.%d", g, i)))
					}
					db.Write(&b)
				}
				ops.Add(1)
			}
		}(g)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(watchdogue):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "=== sharded batch stall: %d/%d ops completed ===\n%s\n",
			ops.Load(), workers*iters, buf[:n])
		t.Fatal("sharded multi-key batches stalled (possible lock-order deadlock); stacks dumped above")
	}
}
