// Package repro is a from-scratch Go implementation of Reciprocating
// Locks (Dice & Kogan, PPoPP 2025): a compact, constant-time,
// locally-spinning mutual exclusion algorithm with population-bounded
// bypass, together with every variant published in the paper and the
// complete evaluation apparatus needed to reproduce its results.
//
// The primary type is Lock — the canonical Listing 1 algorithm:
//
//	var mu repro.Lock        // zero value ready; one word + context
//	mu.Lock()
//	defer mu.Unlock()
//
// All lock types implement sync.Locker with usable zero values and
// require no constructors or destructors. For allocation-free hot
// paths, use the explicit wait-element API:
//
//	e := new(repro.WaitElement)   // one per worker goroutine
//	tok := mu.Acquire(e)
//	... critical section ...
//	mu.Release(tok)
//
// Variants (see the package documentation of repro/internal/core for
// the algorithm-by-algorithm discussion):
//
//	SimplifiedLock    Listing 2 — eos word in the lock body
//	RelayLock         Listing 3 — double-swap arrival, relay on race
//	FetchAddLock      Listing 4 — tagged word, one atomic in Release
//	SimplifiedEOSLock Listing 5 — tagged word, per-element eos
//	CombinedLock      Listing 6 — Listings 3+5 without fetch-add
//	GatedLock         Appendix H — pop-stack + leader gate
//	TwoLaneLock       Appendix I — randomized two-lane, long-term fair
//	FairLock          §9.4 — Bernoulli deferral mitigation
//
// The companion packages under internal/ provide the baseline locks
// the paper compares against (MCS, CLH, HemLock, TWA, tickets, and
// more), a deterministic MESI coherence simulator that reproduces the
// paper's Table 1 and Figure 1 results, and benchmark harnesses for
// every table and figure (see DESIGN.md and EXPERIMENTS.md).
package repro

import (
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
)

// Lock is the canonical Reciprocating Lock (Listing 1).
type Lock = core.Lock

// WaitElement is the per-worker waiting element used by the
// allocation-free Acquire/Release API of Lock and FairLock.
type WaitElement = core.WaitElement

// Token carries acquire-to-release context for Lock's explicit API.
type Token = core.Token

// SimplifiedLock is the Listing 2 variant (recommended starting
// point).
type SimplifiedLock = core.SimplifiedLock

// RelayLock is the Listing 3 double-swap/relay variant.
type RelayLock = core.RelayLock

// FetchAddLock is the Listing 4 tagged-word fetch-add variant.
type FetchAddLock = core.FetchAddLock

// SimplifiedEOSLock is the Listing 5 variant.
type SimplifiedEOSLock = core.SimplifiedEOSLock

// CombinedLock is the Listing 6 variant.
type CombinedLock = core.CombinedLock

// GatedLock is the Appendix H "Gated" formulation.
type GatedLock = core.GatedLock

// TwoLaneLock is the Appendix I "2 Lanes" formulation with long-term
// statistical fairness.
type TwoLaneLock = core.TwoLaneLock

// FairLock is the §9.4 Bernoulli-deferral fairness mitigation.
type FairLock = core.FairLock

// LockInfo describes one entry of the repository-wide lock catalog:
// its canonical name and aliases, algorithm family, paper-set
// membership, the declared Park and AllocFree properties, and
// constructor. Every other capability (TryLock, bounded acquisition,
// read paths) is an interface assertion on the lock it constructs.
type LockInfo = registry.Entry

// Locks returns the full lock catalog in canonical order — every lock
// implementation in the repository.
func Locks() []LockInfo { return registry.All() }

// PaperLocks returns the catalog entries for the six algorithms of the
// paper's Figure 1 comparison set.
func PaperLocks() []LockInfo { return registry.Paper() }

// NewLock constructs a lock from the catalog by name or alias
// (case-insensitive, e.g. "Recipro", "MCS", "sync.Mutex"). It reports
// false when no catalog entry matches.
func NewLock(name string) (sync.Locker, bool) {
	lf, ok := registry.Lookup(name)
	if !ok {
		return nil, false
	}
	return lf.New(nil), true
}
