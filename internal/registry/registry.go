// Package registry is the single source of truth for the repository's
// lock catalog: every pluggable sync.Locker — the paper's Figure 1
// set, the Reciprocating variants, and the extra baselines — together
// with its aliases, algorithm family, paper-set membership and
// simulator twin.
//
// It is the Go analog of the paper's LD_PRELOAD methodology (§7): the
// paper swaps lock implementations under unmodified applications by
// varying one environment variable; here every harness, command, and
// library entry point selects locks from this one catalog. What a
// lock can do is read off the lock: TryLock, native bounded
// acquisition and the shared and optimistic read paths are interface
// assertions on an instance, never restated in the row. Only the two
// properties a type cannot show — parking and the allocation-free
// wait-element API — are declared, and the package tests check both.
//
// The three surfaces:
//
//   - Catalog: All, Paper, Lookup, Names enumerate and resolve
//     entries.
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

	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/rwlock"
)

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

// Entry is one catalog row: an identity, a constructor, and the two
// properties the lock's type cannot show.
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
	// Park: contended waiters eventually block (futex or runtime
	// parking) instead of spinning indefinitely.
	Park bool
	// AllocFree: the lock offers the explicit wait-element
	// Acquire/Release API, allowing allocation-free critical sections.
	AllocFree bool
	// Doc is a one-line description for the catalog listing.
	Doc string
	// SimTwin names the internal/simlocks re-implementation of this
	// algorithm (its Lock.Name), when one exists. The name is a string
	// rather than a factory so the catalog does not pull the coherence
	// simulator into every binary that selects locks;
	// internal/conformance resolves the pairing and checks that the two
	// produce identical admission schedules.
	SimTwin string
	// New constructs a fresh, unlocked instance whose waiting is paced
	// by c (nil = wall clock). The FamilyRuntime baselines wait inside
	// the Go runtime and ignore c; Build refuses WithClock for them and
	// for every combinator over them.
	New func(c clock.Clock) sync.Locker
}

// Boundable reports whether the entry supports bounded acquisition at
// all — natively, or through TryLock polling (WithBounded succeeds).
func (e Entry) Boundable() bool { return e.BoundedTier() != "-" }

// BoundedTier names the strongest bounded-acquisition discipline a
// fresh instance offers: "native", "polling", or "-".
func (e Entry) BoundedTier() string {
	switch e.New(nil).(type) {
	case bounded.Locker:
		return "native"
	case bounded.TryLocker:
		return "polling"
	default:
		return "-"
	}
}

// waitsInRuntime reports whether e, or the innermost base of a derived
// "<prefix>:<base>" combinator, waits inside the Go runtime and so
// cannot take an injected clock.
func (e Entry) waitsInRuntime() bool {
	if _, base, derived := strings.Cut(e.Name, ":"); derived {
		b, _ := Lookup(base)
		return b.waitsInRuntime()
	}
	return e.Family == FamilyRuntime
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
		{Name: "TKT", Aliases: []string{"Ticket"}, Family: FamilyTicket, Paper: true, SimTwin: "TKT",
			Doc: "classic FIFO ticket lock",
			New: func(c clock.Clock) sync.Locker { return &locks.TicketLock{Clk: c} }},
		{Name: "MCS", Family: FamilyQueue, Paper: true, SimTwin: "MCS",
			Doc: "MCS queue lock, local spinning on own node",
			New: func(c clock.Clock) sync.Locker { return &locks.MCSLock{Clk: c} }},
		{Name: "CLH", Family: FamilyQueue, Paper: true, SimTwin: "CLH",
			Doc: "CLH queue lock, spins on predecessor's node",
			New: func(c clock.Clock) sync.Locker { return &locks.CLHLock{Clk: c} }},
		{Name: "TWA", Family: FamilyTicket, Paper: true, SimTwin: "TWA",
			Doc: "ticket lock with waiting array",
			New: func(c clock.Clock) sync.Locker { return &locks.TWALock{Clk: c} }},
		{Name: "HemLock", Family: FamilyQueue, Paper: true, SimTwin: "HemLock",
			Doc: "Hemisphere lock, one element per thread",
			New: func(c clock.Clock) sync.Locker { return &locks.HemLock{Clk: c} }},
		{Name: "Recipro", Aliases: []string{"Reciprocating", "L1"}, Family: FamilyReciprocating, Paper: true, AllocFree: true, SimTwin: "Recipro",
			Doc: "canonical Reciprocating Lock (Listing 1)",
			New: func(c clock.Clock) sync.Locker { return &core.Lock{Clk: c} }},

		// --- extra baselines ---
		{Name: "TAS", Family: FamilySpin,
			Doc: "test-and-set spin lock",
			New: func(c clock.Clock) sync.Locker { return &locks.TASLock{Clk: c} }},
		{Name: "TTAS", Family: FamilySpin,
			Doc: "test-and-test-and-set spin lock",
			New: func(c clock.Clock) sync.Locker { return &locks.TTASLock{Clk: c} }},
		{Name: "ABQL", Aliases: []string{"Anderson"}, Family: FamilyQueue, SimTwin: "ABQL",
			Doc: "Anderson array-based queue lock (fixed capacity)",
			New: func(c clock.Clock) sync.Locker { return locks.NewABQL(DefaultABQLCapacity, c) }},
		{Name: "Chen", Family: FamilySegment, SimTwin: "Chen",
			Doc: "Chen & Huang segment lock, global spinning",
			New: func(c clock.Clock) sync.Locker { return &locks.ChenLock{Clk: c} }},
		{Name: "Retrograde", Family: FamilyTicket,
			Doc: "Listing 7 retrograde ticket lock",
			New: func(c clock.Clock) sync.Locker { return &locks.RetrogradeLock{Clk: c} }},
		{Name: "RetroRand", Aliases: []string{"RetrogradeRand"}, Family: FamilyTicket,
			Doc: "randomized retrograde ticket lock",
			New: func(c clock.Clock) sync.Locker { return &locks.RetrogradeRandLock{Clk: c} }},

		// --- Reciprocating variants ---
		{Name: "Recipro-L2", Aliases: []string{"L2", "Simplified"}, Family: FamilyReciprocating, SimTwin: "Recipro-L2",
			Doc: "Listing 2, eos in the lock body",
			New: func(c clock.Clock) sync.Locker { return &core.SimplifiedLock{Clk: c} }},
		{Name: "Recipro-L3", Aliases: []string{"L3", "Relay"}, Family: FamilyReciprocating,
			Doc: "Listing 3, double-swap relay",
			New: func(c clock.Clock) sync.Locker { return &core.RelayLock{Clk: c} }},
		{Name: "Recipro-L4", Aliases: []string{"L4", "FetchAdd"}, Family: FamilyReciprocating,
			Doc: "Listing 4, tagged word with fetch-add release",
			New: func(c clock.Clock) sync.Locker { return &core.FetchAddLock{Clk: c} }},
		{Name: "Recipro-L5", Aliases: []string{"L5"}, Family: FamilyReciprocating,
			Doc: "Listing 5, tagged word with per-element eos",
			New: func(c clock.Clock) sync.Locker { return &core.SimplifiedEOSLock{Clk: c} }},
		{Name: "Recipro-L6", Aliases: []string{"L6", "Combined"}, Family: FamilyReciprocating,
			Doc: "Listing 6, combined Listings 3+5",
			New: func(c clock.Clock) sync.Locker { return &core.CombinedLock{Clk: c} }},
		{Name: "Gated", Family: FamilyReciprocating,
			Doc: "Appendix H pop-stack with leader gate",
			New: func(c clock.Clock) sync.Locker { return &core.GatedLock{Clk: c} }},
		{Name: "TwoLane", Family: FamilyReciprocating,
			Doc: "Appendix I randomized two-lane, long-term fair",
			New: func(c clock.Clock) sync.Locker { return &core.TwoLaneLock{Clk: c} }},
		{Name: "Fair", Family: FamilyReciprocating, AllocFree: true,
			Doc: "§9.4 Bernoulli-deferral fairness mitigation",
			New: func(c clock.Clock) sync.Locker { return &core.FairLock{Clk: c} }},
		{Name: "Recipro-CTR", Aliases: []string{"CTR"}, Family: FamilyReciprocating, AllocFree: true,
			Doc: "§10 CTR (consume-the-grant) waiting discipline",
			New: func(c clock.Clock) sync.Locker { return &core.CTRLock{Clk: c} }},
		{Name: "Recipro-L2park", Aliases: []string{"L2park"}, Family: FamilyReciprocating, Park: true, SimTwin: "Recipro-L2",
			Doc: "Listing 2 with §8 futex parking",
			New: func(c clock.Clock) sync.Locker { return &core.SimplifiedLock{Park: true, Clk: c} }},

		// --- read-path combinators (internal/rwlock) ---
		// Registered over the canonical Reciprocating base; any other
		// TryLock-capable base is reachable through the dynamic
		// "rw:<lock>" / "seq:<lock>" / "occ:<lock>" selection prefixes.
		{Name: "RW-Recipro", Aliases: []string{"RW"}, Family: FamilyCombinator,
			Doc: "writer-preference reader/writer adapter over Recipro",
			New: func(c clock.Clock) sync.Locker { return rwlock.NewRW(&core.Lock{Clk: c}, c) }},
		{Name: "Seq-Recipro", Aliases: []string{"Seqlock", "Seq"}, Family: FamilyCombinator,
			Doc: "version-stamped seqlock (retry-on-conflict reads) over Recipro",
			New: func(c clock.Clock) sync.Locker { return rwlock.NewSeqlock(&core.Lock{Clk: c}, c) }},
		{Name: "OCC-Recipro", Aliases: []string{"OCC"}, Family: FamilyCombinator,
			Doc: "optimistic reads with bounded retries, then the real lock",
			New: func(c clock.Clock) sync.Locker { return rwlock.NewOCC(&core.Lock{Clk: c}, c) }},

		// --- real-world defaults for context ---
		{Name: "GoMutex", Aliases: []string{"Mutex", "sync.Mutex"}, Family: FamilyRuntime, Park: true,
			Doc: "Go runtime sync.Mutex (parks in the runtime)",
			New: func(clock.Clock) sync.Locker { return new(sync.Mutex) }},
		{Name: "GoRWMutex", Aliases: []string{"RWMutex", "sync.RWMutex"}, Family: FamilyRuntime, Park: true,
			Doc: "Go runtime sync.RWMutex (native shared read path)",
			New: func(clock.Clock) sync.Locker { return new(sync.RWMutex) }},
		{Name: "FutexMutex", Aliases: []string{"Futex"}, Family: FamilyFutex, Park: true,
			Doc: "three-state futex mutex, the pthread default shape",
			New: func(c clock.Clock) sync.Locker { return &locks.FutexMutex{Clk: c} }},
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
// row (Build pipeline, capability matrix) but is not listed by All.
func Lookup(name string) (Entry, bool) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, p := range []string{"rw:", "seq:", "occ:"} {
		if strings.HasPrefix(want, p) {
			base, ok := Lookup(want[len(p):])
			if !ok {
				return Entry{}, false
			}
			if _, try := base.New(nil).(bounded.TryLocker); !try {
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
// combinator over base, named "<Prefix>:<base name>". The derived
// entry keeps base's SimTwin, Park and AllocFree out (a twin models
// the base's admission order, not the wrapper's read protocol, and the
// wrapper neither parks on its own nor offers the wait-element API);
// its surfaces are the wrapper's own: TryLock plus the read path.
func deriveCombinator(prefix string, base Entry) Entry {
	inner := base.New
	switch prefix {
	case "rw:":
		return Entry{
			Name: "RW:" + base.Name, Family: FamilyCombinator,
			Doc: "writer-preference reader/writer adapter over " + base.Name,
			New: func(c clock.Clock) sync.Locker { return rwlock.NewRW(inner(c), c) },
		}
	case "seq:":
		return Entry{
			Name: "Seq:" + base.Name, Family: FamilyCombinator,
			Doc: "version-stamped seqlock over " + base.Name,
			New: func(c clock.Clock) sync.Locker { return rwlock.NewSeqlock(inner(c), c) },
		}
	case "occ:":
		return Entry{
			Name: "OCC:" + base.Name, Family: FamilyCombinator,
			Doc: "optimistic-then-fallback reads over " + base.Name,
			New: func(c clock.Clock) sync.Locker { return rwlock.NewOCC(inner(c), c) },
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
