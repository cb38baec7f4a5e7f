// Package coherence implements a deterministic MESI cache-coherence
// simulator: per-CPU caches tracking line states, a snooping bus that
// counts coherence events, an optional NUMA home map, and a cycle cost
// model.
//
// The paper derives its Table 1 "Invalidations per episode" column by
// running locks with degenerate critical sections and reading the ARM
// l2d_cache_inval hardware counter, and cross-checks the counts by
// static analysis of each algorithm's memory accesses (§6, §8). Those
// counts are a property of the access sequences, not of any particular
// machine, so a MESI model replaying the exact sequences reproduces
// them on hardware we don't have. The same model plus a per-event
// cycle cost turns simulated lock executions into contended-throughput
// estimates for the Figure 1 shape reproduction.
//
// The simulator is intentionally simple: one word per line (every
// interesting location in the lock algorithms is sequestered on its
// own line anyway, matching the 128-byte alignment the paper applies),
// writeback effects folded into miss costs, and a single bus with no
// queuing model. That is exactly the level of abstraction at which the
// paper itself reasons in §8's miss tallies.
package coherence

import "fmt"

// Addr identifies one simulated memory line (one word per line).
type Addr uint64

// State is a MESI line state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// CPUStats tallies per-CPU coherence events. "Coherence misses" in the
// paper's sense — the events an acquire/release episode suffers — are
// LoadMisses + StoreMisses + Upgrades.
type CPUStats struct {
	Loads       uint64
	Stores      uint64
	LoadMisses  uint64 // load found line Invalid locally
	StoreMisses uint64 // store/RMW found line Invalid locally
	Upgrades    uint64 // store/RMW found line Shared (S→M upgrade)
	Invalidated uint64 // lines this CPU lost to remote writes
	RemoteMiss  uint64 // misses whose line is homed on another node
}

// CoherenceEvents returns the episode-relevant event count (the
// paper's invalidation/miss metric).
func (s CPUStats) CoherenceEvents() uint64 {
	return s.LoadMisses + s.StoreMisses + s.Upgrades
}

// Config shapes a simulated system.
type Config struct {
	CPUs int
	// NodeOf maps a CPU to its NUMA node; nil means single-node.
	NodeOf func(cpu int) int
	// HomeOf maps a line to its home node; nil homes every line on
	// node 0. Per-thread structures are typically homed on their
	// owner's node (the paper's §8 point (A)).
	HomeOf func(a Addr) int
	// WordsPerLine sets the coherence granule in words (default 1:
	// every word on its own line, modeling the paper's 128-byte
	// sequestration of all hot fields). Values > 1 make sequentially
	// allocated words share lines, enabling false-sharing studies.
	WordsPerLine int
}

// LineStats tallies coherence events attributed to one named line —
// the per-access-site breakdown behind §8's itemized miss tallies.
type LineStats struct {
	LoadMisses  uint64
	StoreMisses uint64
	Upgrades    uint64
}

// Events sums the line's coherence events.
func (l LineStats) Events() uint64 { return l.LoadMisses + l.StoreMisses + l.Upgrades }

// System is a simulated cache-coherent machine. Cache state is
// tracked per line; memory contents per word. Alloc hands out word
// addresses densely from 1 (0 is the reserved null), so memory,
// labels and line states live in slices indexed by address and line.
type System struct {
	cfg  Config
	wpl  Addr
	cpus int
	// states holds every CPU's MESI state of every line, line-major:
	// line ln's states are states[ln*cpus : (ln+1)*cpus].
	states []State
	mem    []uint64 // indexed by word address
	names  []string // Alloc labels, indexed by word address
	stats  []CPUStats
	lines  map[string]*LineStats // keyed by line label
}

// NewSystem creates a system with the given configuration.
func NewSystem(cfg Config) *System {
	if cfg.CPUs <= 0 {
		panic("coherence: CPUs must be positive")
	}
	wpl := Addr(cfg.WordsPerLine)
	if wpl == 0 {
		wpl = 1
	}
	return &System{
		cfg:   cfg,
		wpl:   wpl,
		cpus:  cfg.CPUs,
		mem:   make([]uint64, 1), // address 0 reserved as "null"
		names: make([]string, 1),
		stats: make([]CPUStats, cfg.CPUs),
		lines: make(map[string]*LineStats),
	}
}

// lineOf maps a word address to its coherence line.
func (s *System) lineOf(a Addr) Addr { return (a - 1) / s.wpl }

// line returns every CPU's state of the line holding word a.
func (s *System) line(a Addr) []State {
	i := int(s.lineOf(a)) * s.cpus
	return s.states[i : i+s.cpus]
}

// Alloc reserves a fresh word (zero-initialized) and labels it for
// diagnostics, growing the line states when it opens a new line.
func (s *System) Alloc(name string) Addr {
	a := Addr(len(s.mem))
	s.mem = append(s.mem, 0)
	s.names = append(s.names, name)
	if need := (int(s.lineOf(a)) + 1) * s.cpus; need > len(s.states) {
		s.states = append(s.states, make([]State, need-len(s.states))...)
	}
	return a
}

// Name returns the label given to a at Alloc time, or "" for an
// address Alloc has not handed out.
func (s *System) Name(a Addr) string {
	if int(a) >= len(s.names) {
		return ""
	}
	return s.names[a]
}

// CPUs reports the configured CPU count.
func (s *System) CPUs() int { return s.cfg.CPUs }

func (s *System) nodeOf(cpu int) int {
	if s.cfg.NodeOf == nil {
		return 0
	}
	return s.cfg.NodeOf(cpu)
}

func (s *System) homeOf(a Addr) int {
	if s.cfg.HomeOf == nil {
		return 0
	}
	return s.cfg.HomeOf(a)
}

// Stats returns a copy of cpu's counters.
func (s *System) Stats(cpu int) CPUStats { return s.stats[cpu] }

// ResetStats zeroes all counters (used to skip warmup transients).
func (s *System) ResetStats() {
	for i := range s.stats {
		s.stats[i] = CPUStats{}
	}
	s.lines = make(map[string]*LineStats)
}

// lineStats returns the per-label accumulator for a word's line.
func (s *System) lineStats(a Addr) *LineStats {
	name := s.names[a]
	ls := s.lines[name]
	if ls == nil {
		ls = &LineStats{}
		s.lines[name] = ls
	}
	return ls
}

// LineBreakdown returns a copy of the per-label event tallies —
// "which access site pays which miss", the §8 itemization.
func (s *System) LineBreakdown() map[string]LineStats {
	out := make(map[string]LineStats, len(s.lines))
	for k, v := range s.lines {
		out[k] = *v
	}
	return out
}

// StateOf reports cpu's cached state for the line holding word a
// (tests/diagnostics).
func (s *System) StateOf(cpu int, a Addr) State { return s.line(a)[cpu] }

// Peek reads memory without coherence effects (tests/diagnostics).
func (s *System) Peek(a Addr) uint64 { return s.mem[a] }

// InitValue sets a line's initial contents without coherence effects.
// Use only during setup, before any simulated thread runs (the moral
// equivalent of static initialization).
func (s *System) InitValue(a Addr, v uint64) { s.mem[a] = v }

// Load performs a coherent read by cpu and returns the value.
func (s *System) Load(cpu int, a Addr) uint64 {
	st := &s.stats[cpu]
	st.Loads++
	ln := s.line(a)
	switch ln[cpu] {
	case Modified, Exclusive, Shared:
		return s.mem[a] // hit
	}
	// Miss: snoop. An M/E holder downgrades to Shared (writeback is
	// folded into the miss cost).
	st.LoadMisses++
	s.lineStats(a).LoadMisses++
	if s.homeOf(a) != s.nodeOf(cpu) {
		st.RemoteMiss++
	}
	others := false
	for c := range ln {
		if c == cpu {
			continue
		}
		switch ln[c] {
		case Modified, Exclusive:
			ln[c] = Shared
			others = true
		case Shared:
			others = true
		}
	}
	if others {
		ln[cpu] = Shared
	} else {
		ln[cpu] = Exclusive
	}
	return s.mem[a]
}

// Store performs a coherent write by cpu.
func (s *System) Store(cpu int, a Addr, v uint64) {
	s.writeAccess(cpu, a)
	s.mem[a] = v
}

// writeAccess acquires the word's line in Modified state, counting
// events.
func (s *System) writeAccess(cpu int, a Addr) {
	st := &s.stats[cpu]
	st.Stores++
	ln := s.line(a)
	switch ln[cpu] {
	case Modified:
		return // hit
	case Exclusive:
		ln[cpu] = Modified // silent upgrade, free
		return
	case Shared:
		st.Upgrades++ // S→M: must invalidate peers
		s.lineStats(a).Upgrades++
	default:
		st.StoreMisses++
		s.lineStats(a).StoreMisses++
		if s.homeOf(a) != s.nodeOf(cpu) {
			st.RemoteMiss++
		}
	}
	for c := range ln {
		if c == cpu {
			continue
		}
		if ln[c] != Invalid {
			ln[c] = Invalid
			s.stats[c].Invalidated++
		}
	}
	ln[cpu] = Modified
}

// Swap performs an atomic exchange by cpu (an RMW counts as a write
// access for coherence purposes).
func (s *System) Swap(cpu int, a Addr, v uint64) uint64 {
	s.writeAccess(cpu, a)
	old := s.mem[a]
	s.mem[a] = v
	return old
}

// CAS performs an atomic compare-and-swap by cpu. Like hardware
// CMPXCHG, it acquires the line exclusively whether or not it
// succeeds.
func (s *System) CAS(cpu int, a Addr, old, new uint64) bool {
	s.writeAccess(cpu, a)
	if s.mem[a] != old {
		return false
	}
	s.mem[a] = new
	return true
}

// FetchAdd performs an atomic fetch-and-add by cpu, returning the
// prior value.
func (s *System) FetchAdd(cpu int, a Addr, d uint64) uint64 {
	s.writeAccess(cpu, a)
	old := s.mem[a]
	s.mem[a] = old + d
	return old
}

// CheckInvariants validates MESI safety: at most one M/E holder per
// line, and an M/E holder excludes Shared copies. Tests call this
// after every operation batch.
func (s *System) CheckInvariants() error {
	for i := 0; i < len(s.states); i += s.cpus {
		ln := i / s.cpus
		owners, sharers := 0, 0
		for _, st := range s.states[i : i+s.cpus] {
			switch st {
			case Modified, Exclusive:
				owners++
			case Shared:
				sharers++
			}
		}
		if owners > 1 {
			return fmt.Errorf("line %d: %d M/E owners", ln, owners)
		}
		if owners == 1 && sharers > 0 {
			return fmt.Errorf("line %d: M/E owner coexists with %d sharers", ln, sharers)
		}
	}
	return nil
}
