// Package registry is the single source of truth for the repository's
// lock catalog: every pluggable sync.Locker — the paper's Figure 1
// set, the Reciprocating variants, and the extra baselines — together
// with its aliases, algorithm family, paper-set membership, and a
// declared capability set (TryLock, native bounded acquisition,
// parking, allocation-free explicit API).
//
// It is the Go analog of the paper's LD_PRELOAD methodology (§7): the
// paper swaps lock implementations under unmodified applications by
// varying one environment variable; here every harness, command, and
// library entry point selects locks from this one catalog, so "what
// locks exist and what they can do" is declared once and tested once
// (capability claims are verified against runtime behavior in the
// package tests) instead of being rediscovered by scattered type
// assertions.
//
// The three surfaces:
//
//   - Catalog: All, Paper, Lookup, Names enumerate and resolve
//     entries; each Entry declares its Capability set.
//   - Build / Entry.Build construct an entry on an optional injected
//     clock and fuse the optional layers — chaos veto,
//     bounded-acquisition guarantee, lockstat instrumentation — into
//     one decorator whose surfaces are exactly the lock's (see
//     build.go).
//   - Flag: LocksFlag is the shared -locks parser used identically by
//     cmd/mutexbench, cmd/kvbench, cmd/torture and cmd/atomicbench,
//     including "-locks list" to print the capability matrix.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/rwlock"
)

// Capability is a bit set of mechanically verifiable lock properties.
// The claims declared in the catalog are enforced by the package
// tests: a TryLock claim must match a runtime interface assertion, a
// NativeBounded claim must match the bounded.Locker contract, and so
// on — capabilities are promises, not hints.
type Capability uint32

const (
	// CapTryLock: the lock exposes a non-blocking TryLock doorway.
	CapTryLock Capability = 1 << iota
	// CapNativeBounded: LockFor/LockCtx are implemented inside the
	// algorithm (safe abandonment of a published waiter), not by
	// TryLock polling.
	CapNativeBounded
	// CapPark: contended waiters eventually block (futex or runtime
	// parking) instead of spinning indefinitely.
	CapPark
	// CapAllocFree: the lock offers the explicit wait-element
	// Acquire/Release API, allowing allocation-free critical sections.
	CapAllocFree
	// CapSimTwin: the entry declares a Track B twin — a deterministic
	// internal/simlocks re-implementation of the same algorithm — in
	// its SimTwin field, and the differential conformance checker
	// (internal/conformance) verifies the two produce identical
	// admission schedules. The pairing is a promise: CapSimTwin without
	// a resolvable SimTwin name (or vice versa) fails the registry
	// tests.
	CapSimTwin
	// CapReadShared: the lock exposes the rwlock.RWLocker read path
	// (RLock/RUnlock) and admits concurrent readers while a writer
	// excludes them all — verified by conformance CheckReadSharing.
	CapReadShared
	// CapOptimisticRead: the lock exposes the rwlock.OptimisticLocker
	// read path (ReadBegin/ReadValidate/OptimisticRead): version-
	// stamped sections that acquire nothing and retry on conflict,
	// never returning a torn validated read — verified by conformance
	// CheckReadSharing.
	CapOptimisticRead
)

// Has reports whether c includes every bit of x.
func (c Capability) Has(x Capability) bool { return c&x == x }

// String renders the set as "TryLock|NativeBounded|..." ("-" when
// empty).
func (c Capability) String() string {
	var parts []string
	for _, b := range []struct {
		bit  Capability
		name string
	}{
		{CapTryLock, "TryLock"},
		{CapNativeBounded, "NativeBounded"},
		{CapPark, "Park"},
		{CapAllocFree, "AllocFree"},
		{CapSimTwin, "SimTwin"},
		{CapReadShared, "ReadShared"},
		{CapOptimisticRead, "OptimisticRead"},
	} {
		if c.Has(b.bit) {
			parts = append(parts, b.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// Family groups catalog entries by algorithmic lineage.
type Family string

const (
	FamilyReciprocating Family = "reciprocating" // paper's algorithm and its variants
	FamilySegment       Family = "segment"       // Chen & Huang — same segment discipline, global spinning
	FamilyQueue         Family = "queue"         // MCS/CLH/HemLock/ABQL queue locks
	FamilyTicket        Family = "ticket"        // ticket lock and descendants
	FamilySpin          Family = "spin"          // centralized test-and-set spinning
	FamilyFutex         Family = "futex"         // three-state futex mutex
	FamilyRuntime       Family = "runtime"       // Go runtime's own mutex
	FamilyCombinator    Family = "combinator"    // read-path wrappers over a base lock (internal/rwlock)
)

// Entry is one catalog row: an identity, a constructor, and a set of
// declared, test-enforced capabilities.
type Entry struct {
	// Name is the canonical selection name (the paper's legend name
	// where one exists).
	Name string
	// Aliases are accepted alternative names (case-insensitive, like
	// Name itself).
	Aliases []string
	// Family is the algorithmic lineage.
	Family Family
	// Paper marks membership in the Figure 1 evaluation set.
	Paper bool
	// Caps declares the lock's capability set.
	Caps Capability
	// Doc is a one-line description for the catalog listing.
	Doc string
	// SimTwin names the internal/simlocks re-implementation of this
	// algorithm (its Lock.Name), when one exists; set iff Caps has
	// CapSimTwin. The name is a string rather than a factory so the
	// catalog does not pull the coherence simulator into every binary
	// that selects locks; internal/conformance resolves and enforces
	// the pairing.
	SimTwin string
	// New constructs a fresh, unlocked instance whose waiting is paced
	// by c (nil = wall clock). The FamilyRuntime baselines wait inside
	// the Go runtime and ignore c; Build refuses WithClock for them.
	New func(c clock.Clock) sync.Locker
}

// Boundable reports whether the entry supports bounded acquisition at
// all — natively, or through TryLock polling (WithBounded succeeds).
func (e Entry) Boundable() bool {
	return e.Caps&(CapTryLock|CapNativeBounded) != 0
}

// BoundedTier names the strongest bounded-acquisition discipline the
// entry supports: "native", "polling", or "-".
func (e Entry) BoundedTier() string {
	switch {
	case e.Caps.Has(CapNativeBounded):
		return "native"
	case e.Caps.Has(CapTryLock):
		return "polling"
	default:
		return "-"
	}
}

// DefaultABQLCapacity is the fixed participant capacity (holders plus
// waiters) of the catalog's ABQL entry. Anderson's lock requires the
// maximum simultaneous-participant count at construction (§5's
// objection to the family); the catalog picks a bound comfortably
// above every harness's goroutine count.
const DefaultABQLCapacity = 512

// catalog returns the full entry list in canonical order: the Figure 1
// legend set first (in legend order), then the remaining baselines and
// variants. A fresh slice is returned so callers may reorder it.
func catalog() []Entry {
	return []Entry{
		// --- Figure 1 legend set (paper order) ---
		{Name: "TKT", Aliases: []string{"Ticket"}, Family: FamilyTicket, Paper: true,
			Caps: CapTryLock | CapNativeBounded | CapSimTwin, SimTwin: "TKT",
			Doc: "classic FIFO ticket lock",
			New: func(c clock.Clock) sync.Locker { return &locks.TicketLock{Clk: c} }},
		{Name: "MCS", Family: FamilyQueue, Paper: true,
			Caps: CapTryLock | CapNativeBounded | CapSimTwin, SimTwin: "MCS",
			Doc: "MCS queue lock, local spinning on own node",
			New: func(c clock.Clock) sync.Locker { return &locks.MCSLock{Clk: c} }},
		{Name: "CLH", Family: FamilyQueue, Paper: true,
			Caps: CapTryLock | CapNativeBounded | CapSimTwin, SimTwin: "CLH",
			Doc: "CLH queue lock, spins on predecessor's node",
			New: func(c clock.Clock) sync.Locker { return &locks.CLHLock{Clk: c} }},
		{Name: "TWA", Family: FamilyTicket, Paper: true,
			Caps: CapTryLock | CapSimTwin, SimTwin: "TWA",
			Doc: "ticket lock with waiting array",
			New: func(c clock.Clock) sync.Locker { return &locks.TWALock{Clk: c} }},
		{Name: "HemLock", Family: FamilyQueue, Paper: true,
			Caps: CapTryLock | CapSimTwin, SimTwin: "HemLock",
			Doc: "Hemisphere lock, one element per thread",
			New: func(c clock.Clock) sync.Locker { return &locks.HemLock{Clk: c} }},
		{Name: "Recipro", Aliases: []string{"Reciprocating", "L1"}, Family: FamilyReciprocating, Paper: true,
			Caps: CapTryLock | CapNativeBounded | CapAllocFree | CapSimTwin, SimTwin: "Recipro",
			Doc: "canonical Reciprocating Lock (Listing 1)",
			New: func(c clock.Clock) sync.Locker { return &core.Lock{Clk: c} }},

		// --- extra baselines ---
		{Name: "TAS", Family: FamilySpin,
			Caps: CapTryLock | CapNativeBounded,
			Doc:  "test-and-set spin lock",
			New:  func(c clock.Clock) sync.Locker { return &locks.TASLock{Clk: c} }},
		{Name: "TTAS", Family: FamilySpin,
			Caps: CapTryLock | CapNativeBounded,
			Doc:  "test-and-test-and-set spin lock",
			New:  func(c clock.Clock) sync.Locker { return &locks.TTASLock{Clk: c} }},
		{Name: "ABQL", Aliases: []string{"Anderson"}, Family: FamilyQueue,
			Caps: CapTryLock | CapSimTwin, SimTwin: "ABQL",
			Doc: "Anderson array-based queue lock (fixed capacity)",
			New: func(c clock.Clock) sync.Locker { return locks.NewABQL(DefaultABQLCapacity, c) }},
		{Name: "Chen", Family: FamilySegment,
			Caps: CapTryLock | CapSimTwin, SimTwin: "Chen",
			Doc: "Chen & Huang segment lock, global spinning",
			New: func(c clock.Clock) sync.Locker { return &locks.ChenLock{Clk: c} }},
		{Name: "Retrograde", Family: FamilyTicket,
			Caps: CapTryLock,
			Doc:  "Listing 7 retrograde ticket lock",
			New:  func(c clock.Clock) sync.Locker { return &locks.RetrogradeLock{Clk: c} }},
		{Name: "RetroRand", Aliases: []string{"RetrogradeRand"}, Family: FamilyTicket,
			Caps: CapTryLock,
			Doc:  "randomized retrograde ticket lock",
			New:  func(c clock.Clock) sync.Locker { return &locks.RetrogradeRandLock{Clk: c} }},

		// --- Reciprocating variants ---
		{Name: "Recipro-L2", Aliases: []string{"L2", "Simplified"}, Family: FamilyReciprocating,
			Caps: CapTryLock | CapNativeBounded | CapSimTwin, SimTwin: "Recipro-L2",
			Doc: "Listing 2, eos in the lock body",
			New: func(c clock.Clock) sync.Locker { return &core.SimplifiedLock{Clk: c} }},
		{Name: "Recipro-L3", Aliases: []string{"L3", "Relay"}, Family: FamilyReciprocating,
			Caps: CapTryLock,
			Doc:  "Listing 3, double-swap relay",
			New:  func(c clock.Clock) sync.Locker { return &core.RelayLock{Clk: c} }},
		{Name: "Recipro-L4", Aliases: []string{"L4", "FetchAdd"}, Family: FamilyReciprocating,
			Caps: CapTryLock,
			Doc:  "Listing 4, tagged word with fetch-add release",
			New:  func(c clock.Clock) sync.Locker { return &core.FetchAddLock{Clk: c} }},
		{Name: "Recipro-L5", Aliases: []string{"L5"}, Family: FamilyReciprocating,
			Caps: CapTryLock,
			Doc:  "Listing 5, tagged word with per-element eos",
			New:  func(c clock.Clock) sync.Locker { return &core.SimplifiedEOSLock{Clk: c} }},
		{Name: "Recipro-L6", Aliases: []string{"L6", "Combined"}, Family: FamilyReciprocating,
			Caps: CapTryLock,
			Doc:  "Listing 6, combined Listings 3+5",
			New:  func(c clock.Clock) sync.Locker { return &core.CombinedLock{Clk: c} }},
		{Name: "Gated", Family: FamilyReciprocating,
			Caps: 0,
			Doc:  "Appendix H pop-stack with leader gate",
			New:  func(c clock.Clock) sync.Locker { return &core.GatedLock{Clk: c} }},
		{Name: "TwoLane", Family: FamilyReciprocating,
			Caps: 0,
			Doc:  "Appendix I randomized two-lane, long-term fair",
			New:  func(c clock.Clock) sync.Locker { return &core.TwoLaneLock{Clk: c} }},
		{Name: "Fair", Family: FamilyReciprocating,
			Caps: CapTryLock | CapAllocFree,
			Doc:  "§9.4 Bernoulli-deferral fairness mitigation",
			New:  func(c clock.Clock) sync.Locker { return &core.FairLock{Clk: c} }},
		{Name: "Recipro-CTR", Aliases: []string{"CTR"}, Family: FamilyReciprocating,
			Caps: CapTryLock | CapAllocFree,
			Doc:  "§10 CTR (consume-the-grant) waiting discipline",
			New:  func(c clock.Clock) sync.Locker { return &core.CTRLock{Clk: c} }},
		{Name: "Recipro-L2park", Aliases: []string{"L2park"}, Family: FamilyReciprocating,
			Caps: CapTryLock | CapNativeBounded | CapPark | CapSimTwin, SimTwin: "Recipro-L2",
			Doc: "Listing 2 with §8 futex parking",
			New: func(c clock.Clock) sync.Locker { return &core.SimplifiedLock{Park: true, Clk: c} }},

		// --- read-path combinators (internal/rwlock) ---
		// Registered over the canonical Reciprocating base; any other
		// TryLock-capable base is reachable through the dynamic
		// "rw:<lock>" / "seq:<lock>" / "occ:<lock>" selection prefixes.
		{Name: "RW-Recipro", Aliases: []string{"RW"}, Family: FamilyCombinator,
			Caps: CapTryLock | CapReadShared,
			Doc:  "writer-preference reader/writer adapter over Recipro",
			New:  func(c clock.Clock) sync.Locker { return rwlock.NewRW(&core.Lock{Clk: c}, c) }},
		{Name: "Seq-Recipro", Aliases: []string{"Seqlock", "Seq"}, Family: FamilyCombinator,
			Caps: CapTryLock | CapOptimisticRead,
			Doc:  "version-stamped seqlock (retry-on-conflict reads) over Recipro",
			New:  func(c clock.Clock) sync.Locker { return rwlock.NewSeqlock(&core.Lock{Clk: c}, c) }},
		{Name: "OCC-Recipro", Aliases: []string{"OCC"}, Family: FamilyCombinator,
			Caps: CapTryLock | CapOptimisticRead,
			Doc:  "optimistic reads with bounded retries, then the real lock",
			New:  func(c clock.Clock) sync.Locker { return rwlock.NewOCC(&core.Lock{Clk: c}, c) }},

		// --- real-world defaults for context ---
		{Name: "GoMutex", Aliases: []string{"Mutex", "sync.Mutex"}, Family: FamilyRuntime,
			Caps: CapTryLock | CapPark,
			Doc:  "Go runtime sync.Mutex (parks in the runtime)",
			New:  func(clock.Clock) sync.Locker { return new(sync.Mutex) }},
		{Name: "GoRWMutex", Aliases: []string{"RWMutex", "sync.RWMutex"}, Family: FamilyRuntime,
			Caps: CapTryLock | CapPark | CapReadShared,
			Doc:  "Go runtime sync.RWMutex (native shared read path)",
			New:  func(clock.Clock) sync.Locker { return new(sync.RWMutex) }},
		{Name: "FutexMutex", Aliases: []string{"Futex"}, Family: FamilyFutex,
			Caps: CapTryLock | CapPark,
			Doc:  "three-state futex mutex, the pthread default shape",
			New:  func(c clock.Clock) sync.Locker { return &locks.FutexMutex{Clk: c} }},
	}
}

// All returns every catalog entry in canonical order.
func All() []Entry { return catalog() }

// Paper returns the six locks evaluated in Figure 1, in the paper's
// legend order.
func Paper() []Entry {
	var out []Entry
	for _, e := range catalog() {
		if e.Paper {
			out = append(out, e)
		}
	}
	return out
}

// Lookup resolves a canonical name or alias, case-insensitively. The
// prefixes "rw:", "seq:" and "occ:" derive a read-path combinator over
// any TryLock-capable entry — "rw:MCS" is the reader/writer adapter
// over the MCS lock — producing an Entry that behaves like a catalog
// row (Build pipeline, capability claims) but is not listed by All.
func Lookup(name string) (Entry, bool) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, p := range []string{"rw:", "seq:", "occ:"} {
		if strings.HasPrefix(want, p) {
			base, ok := Lookup(want[len(p):])
			if !ok || !base.Caps.Has(CapTryLock) {
				return Entry{}, false
			}
			return deriveCombinator(p, base), true
		}
	}
	for _, e := range catalog() {
		if strings.ToLower(e.Name) == want {
			return e, true
		}
		for _, a := range e.Aliases {
			if strings.ToLower(a) == want {
				return e, true
			}
		}
	}
	return Entry{}, false
}

// Names returns every canonical name in catalog order.
func Names() []string {
	var out []string
	for _, e := range catalog() {
		out = append(out, e.Name)
	}
	return out
}

// Select resolves a selection spec: a comma-separated list whose
// elements are canonical names, aliases, or the keywords "paper" (the
// Figure 1 set) and "all" (the whole catalog). Duplicates are removed,
// keeping first-occurrence order.
func Select(spec string) ([]Entry, error) {
	var out []Entry
	seen := map[string]bool{}
	add := func(e Entry) {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e)
		}
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		switch strings.ToLower(tok) {
		case "paper":
			for _, e := range Paper() {
				add(e)
			}
		case "all":
			for _, e := range All() {
				add(e)
			}
		default:
			e, ok := Lookup(tok)
			if !ok {
				return nil, &UnknownLockError{Name: tok}
			}
			add(e)
		}
	}
	if len(out) == 0 {
		return nil, &UnknownLockError{Name: spec}
	}
	return out, nil
}

// deriveCombinator builds the dynamic catalog row for a read-path
// combinator over base. The derived entry keeps base's SimTwin out (a
// twin models the base's admission order, not the wrapper's read
// protocol) and claims only what the wrapper itself promises: TryLock
// plus the read capability.
func deriveCombinator(prefix string, base Entry) Entry {
	inner := base.New
	switch prefix {
	case "rw:":
		return Entry{
			Name: "RW:" + base.Name, Family: FamilyCombinator,
			Caps: CapTryLock | CapReadShared,
			Doc:  "writer-preference reader/writer adapter over " + base.Name,
			New:  func(c clock.Clock) sync.Locker { return rwlock.NewRW(inner(c), c) },
		}
	case "seq:":
		return Entry{
			Name: "Seq:" + base.Name, Family: FamilyCombinator,
			Caps: CapTryLock | CapOptimisticRead,
			Doc:  "version-stamped seqlock over " + base.Name,
			New:  func(c clock.Clock) sync.Locker { return rwlock.NewSeqlock(inner(c), c) },
		}
	case "occ:":
		return Entry{
			Name: "OCC:" + base.Name, Family: FamilyCombinator,
			Caps: CapTryLock | CapOptimisticRead,
			Doc:  "optimistic-then-fallback reads over " + base.Name,
			New:  func(c clock.Clock) sync.Locker { return rwlock.NewOCC(inner(c), c) },
		}
	}
	panic("registry: unknown combinator prefix " + prefix)
}

// UnknownLockError reports a selection token that resolves to no
// catalog entry; its message lists the known names.
type UnknownLockError struct{ Name string }

func (e *UnknownLockError) Error() string {
	names := Names()
	sort.Strings(names)
	return fmt.Sprintf("unknown lock %q (known: %s; use -locks=list to print the catalog)",
		e.Name, strings.Join(names, ", "))
}
