package registry

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bounded"
	"repro/internal/rwlock"
	"repro/internal/table"
)

// FlagUsage is the shared help text for the -locks flag. Every
// lock-consuming command (mutexbench, kvbench, torture, atomicbench)
// registers the flag with this exact usage so the selection syntax is
// identical everywhere.
const FlagUsage = "comma-separated lock names/aliases, 'paper' (Figure 1 set), 'all', or 'list' to print the catalog with its capability matrix"

// LocksFlag is the shared -locks flag value. It implements flag.Value;
// register it with flag.Var and interpret it after flag.Parse with
// Resolve:
//
//	locksF := registry.NewLocksFlag("paper")
//	flag.Var(locksF, "locks", registry.FlagUsage)
//	flag.Parse()
//	lfs, listed, err := locksF.Resolve(os.Stdout)
//	if err != nil { ... os.Exit(2) }
//	if listed { return }
type LocksFlag struct {
	spec string
	def  string
}

// NewLocksFlag returns a flag value whose unset default is the given
// selection spec ("paper" or "all").
func NewLocksFlag(def string) *LocksFlag { return &LocksFlag{def: def} }

// String reports the effective spec (the default until Set is called).
func (f *LocksFlag) String() string {
	if f == nil || f.spec == "" {
		if f == nil {
			return ""
		}
		return f.def
	}
	return f.spec
}

// Set records the spec. Validation is deferred to Resolve so that
// "list" — not a selection — is accepted.
func (f *LocksFlag) Set(s string) error {
	f.spec = s
	return nil
}

// Resolve interprets the flag. For the literal spec "list" it prints
// the capability catalog to list and reports listed=true (the caller
// should exit without running); otherwise it returns the selected
// entries in selection order.
func (f *LocksFlag) Resolve(list io.Writer) (entries []Entry, listed bool, err error) {
	spec := f.String()
	if strings.EqualFold(strings.TrimSpace(spec), "list") {
		FprintCatalog(list)
		return nil, true, nil
	}
	entries, err = Select(spec)
	return entries, false, err
}

// FprintCatalog renders the full catalog with its capability matrix —
// the output of "-locks list".
func FprintCatalog(w io.Writer) {
	t := table.New("Lock catalog — capability matrix",
		"Lock", "Aliases", "Family", "Paper", "TryLock", "Bounded", "Park", "AllocFree", "SimTwin", "ReadShared", "OptRead", "Description")
	for _, e := range All() {
		row := append([]string{e.Name, strings.Join(e.Aliases, ","), string(e.Family)}, matrixColumns(e)...)
		t.Add(append(row, e.Doc)...)
	}
	t.Render(w)
	fmt.Fprintln(w, "\nBounded: native = abandonable in-algorithm LockFor; polling = TryLock retry fallback (barges).")
	fmt.Fprintln(w, "SimTwin: the internal/simlocks model checked against this lock by the differential conformance harness.")
	fmt.Fprintln(w, "ReadShared/OptRead: RLock shared readers / version-stamped optimistic reads; derive over any TryLock base with rw:<lock>, seq:<lock>, occ:<lock>.")
	fmt.Fprintln(w, "Select with -locks=<name,...|paper|all>; names and aliases are case-insensitive.")
}

// matrixColumns renders e's capability-matrix cells — Paper, TryLock,
// Bounded, Park, AllocFree, SimTwin, ReadShared, OptRead — reading the
// surfaces off a fresh instance. FprintCatalog and the ALGORITHMS.md
// golden test both render rows with it, so the doc checks exactly what
// -locks=list prints.
func matrixColumns(e Entry) []string {
	l := e.New(nil)
	_, try := l.(bounded.TryLocker)
	_, rw := l.(rwlock.RWLocker)
	_, opt := l.(rwlock.OptimisticLocker)
	twin := e.SimTwin
	if twin == "" {
		twin = "-"
	}
	return []string{yn(e.Paper), yn(try), e.BoundedTier(), yn(e.Park), yn(e.AllocFree), twin, yn(rw), yn(opt)}
}

func yn(v bool) string {
	if v {
		return "yes"
	}
	return "-"
}
