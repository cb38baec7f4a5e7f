package kvstore

import (
	"fmt"
	"sync"
)

// stripeTable is the striped lock table behind every cross-shard
// operation: one stripe per shard, aliasing the shard's own guarding
// lock, so a cross-shard operation and the single-shard fast path
// contend on exactly the same locks. Batches take the write sides;
// iterator snapshots take the read sides (each shard's
// rwlock.ReadLocker, resolved once by Open), which share when the
// shard lock admits concurrent readers and are the lock itself
// otherwise.
//
// Deadlock freedom rests on one discipline: every multi-stripe
// acquisition takes its stripes in canonical ascending shard order
// (and releases in descending order). lockSet enforces the discipline
// rather than trusting its callers — a non-ascending index sequence
// panics, so an ordering bug surfaces as an immediate, attributable
// failure instead of a rare deadlock. The regression test
// TestStripeCanonicalOrder pins both halves: the enforcement and the
// actual acquisition order. Mixing shared and exclusive acquirers stays
// deadlock-free under the canonical order: shared admissions never
// block each other, so every blocking edge still points from a lower
// stripe to a higher one.
type stripeTable struct {
	write, read stripes
}

// stripes is one side (write or read) of every stripe, by shard index.
type stripes []sync.Locker

// newStripeTable aliases each shard's lock and read side.
func newStripeTable(shards []*DB) stripeTable {
	t := stripeTable{write: make(stripes, len(shards)), read: make(stripes, len(shards))}
	for i, sh := range shards {
		t.write[i], t.read[i] = sh.mu, sh.readMu
	}
	return t
}

// lockSet acquires the stripes named by idxs, which must be strictly
// ascending (callers sort and dedupe; Write does both in one pass).
func (s stripes) lockSet(idxs []int) {
	prev := -1
	for _, i := range idxs {
		if i <= prev {
			panic(fmt.Sprintf("kvstore: stripe acquisition out of canonical order: %d after %d (set %v)", i, prev, idxs))
		}
		prev = i
		s[i].Lock()
	}
}

// unlockSet releases the stripes named by idxs (an ascending set, as
// passed to lockSet) in descending order.
func (s stripes) unlockSet(idxs []int) {
	for i := len(idxs) - 1; i >= 0; i-- {
		s[idxs[i]].Unlock()
	}
}
