package kvstore

import (
	"fmt"
	"sync"

	"repro/internal/rwlock"
)

// stripeTable is the striped lock table behind every cross-shard
// operation: one stripe per shard, aliasing the shard's own guarding
// lock, so a cross-shard operation and the single-shard fast path
// contend on exactly the same locks.
//
// Deadlock freedom rests on one discipline: every multi-stripe
// acquisition takes its stripes in canonical ascending shard order
// (and releases in descending order). lockSet enforces the discipline
// rather than trusting its callers — a non-ascending index sequence
// panics, so an ordering bug surfaces as an immediate, attributable
// failure instead of a rare deadlock. The regression test
// TestStripeCanonicalOrder pins both halves: the enforcement and the
// actual acquisition order.
type stripeTable struct {
	locks []sync.Locker

	// rlocks aliases locks through their shared-read surface, non-nil
	// exactly when every stripe admits concurrent readers (implements
	// rwlock.RWLocker). When nil, the read-set entry points fall back
	// to exclusive acquisition — correct, just unshared.
	rlocks []rwlock.RWLocker
}

// newStripeTable builds the table, resolving the shared-read surface
// once so the per-operation paths need no interface probing.
func newStripeTable(locks []sync.Locker) stripeTable {
	t := stripeTable{locks: locks}
	rlocks := make([]rwlock.RWLocker, len(locks))
	for i, l := range locks {
		r, ok := l.(rwlock.RWLocker)
		if !ok {
			return t
		}
		rlocks[i] = r
	}
	t.rlocks = rlocks
	return t
}

// lockSet acquires the stripes named by idxs, which must be strictly
// ascending (callers sort and dedupe; Write does both in one pass).
func (t *stripeTable) lockSet(idxs []int) {
	prev := -1
	for _, i := range idxs {
		if i <= prev {
			panic(fmt.Sprintf("kvstore: stripe acquisition out of canonical order: %d after %d (set %v)", i, prev, idxs))
		}
		prev = i
		t.locks[i].Lock()
	}
}

// unlockSet releases the stripes named by idxs (an ascending set, as
// passed to lockSet) in descending order.
func (t *stripeTable) unlockSet(idxs []int) {
	for i := len(idxs) - 1; i >= 0; i-- {
		t.locks[idxs[i]].Unlock()
	}
}

// rlockSet acquires the stripes named by idxs for shared reading,
// under the same strictly-ascending discipline as lockSet; it falls
// back to exclusive acquisition when the stripes do not share. Mixing
// shared and exclusive acquirers stays deadlock-free under the
// canonical order: shared admissions never block each other, so every
// blocking edge still points from a lower stripe to a higher one.
func (t *stripeTable) rlockSet(idxs []int) {
	if t.rlocks == nil {
		t.lockSet(idxs)
		return
	}
	prev := -1
	for _, i := range idxs {
		if i <= prev {
			panic(fmt.Sprintf("kvstore: stripe acquisition out of canonical order: %d after %d (set %v)", i, prev, idxs))
		}
		prev = i
		t.rlocks[i].RLock()
	}
}

// runlockSet releases a shared stripe set (an ascending set, as passed
// to rlockSet) in descending order.
func (t *stripeTable) runlockSet(idxs []int) {
	if t.rlocks == nil {
		t.unlockSet(idxs)
		return
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		t.rlocks[idxs[i]].RUnlock()
	}
}
