package registry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/rwlock"
	"repro/internal/waiter"
)

// The catalog must have globally unique selection tokens: no name or
// alias (case-insensitively) may resolve ambiguously, and the
// keywords are reserved.
func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]string{}
	claim := func(tok, owner string) {
		k := strings.ToLower(tok)
		if k == "paper" || k == "all" || k == "list" {
			t.Errorf("entry %s uses reserved selection keyword %q", owner, tok)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("selection token %q claimed by both %s and %s", tok, prev, owner)
		}
		seen[k] = owner
	}
	for _, e := range All() {
		if e.Name == "" || e.New == nil || e.Doc == "" || e.Family == "" {
			t.Errorf("entry %+v is missing identity fields", e)
		}
		claim(e.Name, e.Name)
		for _, a := range e.Aliases {
			claim(a, e.Name)
		}
	}
}

func TestPaperSetIsFigureOneLegend(t *testing.T) {
	want := []string{"TKT", "MCS", "CLH", "TWA", "HemLock", "Recipro"}
	var got []string
	for _, e := range Paper() {
		got = append(got, e.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Paper() = %v, want the Figure 1 legend %v", got, want)
	}
}

func TestLookupAliasesAndCase(t *testing.T) {
	cases := map[string]string{
		"Recipro": "Recipro", "reciprocating": "Recipro", "l1": "Recipro",
		"mcs": "MCS", "Ticket": "TKT", "SYNC.MUTEX": "GoMutex",
		"l2park": "Recipro-L2park", " CLH ": "CLH", "anderson": "ABQL",
	}
	for in, want := range cases {
		e, ok := Lookup(in)
		if !ok || e.Name != want {
			t.Errorf("Lookup(%q) = (%q, %v), want %q", in, e.Name, ok, want)
		}
	}
	if _, ok := Lookup("no-such-lock"); ok {
		t.Error("Lookup accepted a bogus name")
	}
}

func TestSelect(t *testing.T) {
	names := func(es []Entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return out
	}

	got, err := Select("mcs, L2,TKT")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"MCS", "Recipro-L2", "TKT"}; !reflect.DeepEqual(names(got), want) {
		t.Fatalf("Select order = %v, want %v", names(got), want)
	}

	got, err = Select("paper,Recipro,TAS") // Recipro already in paper → dedup
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || got[6].Name != "TAS" {
		t.Fatalf("Select(paper,Recipro,TAS) = %v", names(got))
	}

	if all, err := Select("all"); err != nil || len(all) != len(All()) {
		t.Fatalf("Select(all) = %d entries, err %v", len(all), err)
	}

	_, err = Select("TKT,bogus")
	var ue *UnknownLockError
	if !errorsAs(err, &ue) || ue.Name != "bogus" {
		t.Fatalf("Select with bogus token: err = %v", err)
	}
	if !strings.Contains(err.Error(), "-locks=list") {
		t.Errorf("unknown-lock error should point at -locks=list: %q", err)
	}

	if _, err := Select(""); err == nil {
		t.Error("empty spec must not resolve to an empty selection silently")
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **UnknownLockError) bool {
	if e, ok := err.(*UnknownLockError); ok {
		*target = e
		return true
	}
	return false
}

// Every surface a fresh lock offers must work: TryLock, native
// LockFor, RLock and the optimistic read path each complete a round
// trip, WithBounded builds exactly the boundable entries, and the
// declared AllocFree property matches the wait-element API.
func TestCapabilityClaims(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			l := e.New(nil)

			// Smoke: a fresh lock locks and unlocks.
			l.Lock()
			l.Unlock()

			if tl, ok := l.(bounded.TryLocker); ok {
				if !tl.TryLock() {
					t.Fatal("TryLock on an unheld lock failed")
				}
				if tl.TryLock() {
					t.Fatal("TryLock on a held lock succeeded")
				}
				tl.Unlock()
				if !tl.TryLock() {
					t.Fatal("TryLock after release failed")
				}
				tl.Unlock()
			}

			if bl, ok := l.(bounded.Locker); ok {
				if !bl.LockFor(10 * time.Millisecond) {
					t.Fatal("LockFor on an unheld lock failed")
				}
				bl.Unlock()
				bl.Lock()
				if bl.LockFor(time.Millisecond) {
					t.Fatal("LockFor on a held lock succeeded")
				}
				bl.Unlock()
				// The lock must remain usable after an abandoned wait.
				bl.Lock()
				bl.Unlock()
			}

			// Boundable ⟺ WithBounded can build it at all.
			if _, err := e.Build(WithBounded()); (err == nil) != e.Boundable() {
				t.Fatalf("Boundable() = %v but Build(WithBounded()) error is %v", e.Boundable(), err)
			}

			if rw, ok := l.(rwlock.RWLocker); ok {
				rw.RLock()
				rw.RUnlock()
				rw.Lock()
				rw.Unlock()
			}

			if opt, ok := l.(rwlock.OptimisticLocker); ok {
				s := opt.ReadBegin()
				if !opt.ReadValidate(s) {
					t.Fatal("quiescent optimistic section failed to validate")
				}
				opt.Lock()
				if opt.ReadValidate(s) {
					t.Fatal("stamp validated while a writer holds the lock")
				}
				opt.Unlock()
				ran := false
				opt.OptimisticRead(func() { ran = true })
				if !ran {
					t.Fatal("OptimisticRead never ran its section")
				}
			}

			checkAllocFree(t, e)
		})
	}
}

// checkAllocFree verifies the declared AllocFree property by
// reflection: it means the lock exposes the explicit wait-element API —
// Acquire taking exactly a *core.WaitElement and Release taking
// exactly Acquire's result — and that a round-trip through it works.
func checkAllocFree(t *testing.T, e Entry) {
	t.Helper()
	v := reflect.ValueOf(e.New(nil))
	weType := reflect.TypeOf(&core.WaitElement{})

	acq := v.MethodByName("Acquire")
	hasAPI := acq.IsValid() &&
		acq.Type().NumIn() == 1 && acq.Type().In(0) == weType &&
		acq.Type().NumOut() == 1
	if hasAPI {
		rel := v.MethodByName("Release")
		hasAPI = rel.IsValid() &&
			rel.Type().NumIn() == 1 && rel.Type().In(0) == acq.Type().Out(0)
	}
	if hasAPI != e.AllocFree {
		t.Fatalf("AllocFree declared %v but wait-element API presence is %v",
			e.AllocFree, hasAPI)
	}
	if !hasAPI {
		return
	}
	tok := acq.Call([]reflect.Value{reflect.ValueOf(new(core.WaitElement))})
	v.MethodByName("Release").Call(tok)
	// The explicit API must compose with plain Lock/Unlock.
	l := v.Interface().(sync.Locker)
	l.Lock()
	l.Unlock()
}

// countingSink records park transitions for the Park test.
type countingSink struct{ parks atomic.Int64 }

func (s *countingSink) CountSpin()  {}
func (s *countingSink) CountYield() {}
func (s *countingSink) CountPark()  { s.parks.Add(1) }

// Park entries must actually block a contended waiter (observed via
// the waiter sink) rather than spin indefinitely. GoMutex is exempt:
// it parks inside the Go runtime, invisible to the repository's sink.
// The converse is deliberately not asserted — the waiter escalates
// any long episode to sleeping, so "no parks" is not a testable
// property of non-parking locks.
func TestCapParkBlocksContendedWaiter(t *testing.T) {
	for _, e := range All() {
		if !e.Park || e.Family == FamilyRuntime {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			sink := &countingSink{}
			waiter.SetSink(sink)
			defer waiter.SetSink(nil)

			l := e.New(nil)
			l.Lock()
			acquired := make(chan struct{})
			go func() {
				l.Lock() // must park: the holder sits on the lock
				l.Unlock()
				close(acquired)
			}()

			deadline := time.After(5 * time.Second)
			for sink.parks.Load() == 0 {
				select {
				case <-deadline:
					t.Fatal("contended waiter never parked")
				case <-time.After(time.Millisecond):
				}
			}
			l.Unlock()
			select {
			case <-acquired:
			case <-deadline:
				t.Fatal("parked waiter was never woken")
			}
		})
	}
}

// Every exported Lock()-bearing type in internal/core and
// internal/locks must appear in the catalog: adding a lock without
// registering it is a build-the-catalog-first repository rule. This
// supersedes the old per-harness completeness check that lived in
// internal/mutexbench.
func TestCatalogComplete(t *testing.T) {
	implemented := map[string]bool{}
	for _, dir := range []string{"../core", "../locks"} {
		pkg := dir[strings.LastIndex(dir, "/")+1:]
		for _, name := range exportedLockTypes(t, dir) {
			implemented[pkg+"."+name] = true
		}
	}

	registered := map[string]bool{}
	for _, e := range All() {
		rt := reflect.TypeOf(e.New(nil))
		for rt.Kind() == reflect.Ptr {
			rt = rt.Elem()
		}
		pkg := rt.PkgPath()
		registered[pkg[strings.LastIndex(pkg, "/")+1:]+"."+rt.Name()] = true
	}

	for name := range implemented {
		if !registered[name] {
			t.Errorf("%s implements sync.Locker but has no catalog entry", name)
		}
	}
	if len(implemented) == 0 {
		t.Fatal("AST scan found no lock types — scan is broken")
	}
}

// exportedLockTypes parses dir and returns the exported receiver type
// names that declare a niladic Lock method.
func exportedLockTypes(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name != "Lock" || fn.Recv == nil ||
					len(fn.Type.Params.List) != 0 || fn.Type.Results != nil {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				id, ok := recv.(*ast.Ident)
				if ok && ast.IsExported(id.Name) {
					out = append(out, id.Name)
				}
			}
		}
	}
	return out
}

// The rw:/seq:/occ: prefixes derive combinator entries over any
// TryLock-capable base; bases without the doorway are rejected, and
// derived entries construct the right combinator.
func TestCombinatorLookup(t *testing.T) {
	cases := []struct {
		spec, name string
		rw         bool // RWLocker, else OptimisticLocker
	}{
		{"rw:MCS", "RW:MCS", true},
		{"seq:tkt", "Seq:TKT", false},
		{"occ:clh", "OCC:CLH", false},
		{"RW:GoMutex", "RW:GoMutex", true},
		// Nesting: the outer combinator sees the inner one's TryLock.
		{"rw:seq:MCS", "RW:Seq:MCS", true},
	}
	for _, c := range cases {
		e, ok := Lookup(c.spec)
		if !ok {
			t.Fatalf("Lookup(%q) failed", c.spec)
		}
		if e.Name != c.name || e.Family != FamilyCombinator {
			t.Fatalf("Lookup(%q) = {Name:%s Family:%s}, want {%s combinator}",
				c.spec, e.Name, e.Family, c.name)
		}
		l := e.New(nil)
		l.Lock()
		l.Unlock()
		_, isRW := l.(rwlock.RWLocker)
		_, isOpt := l.(rwlock.OptimisticLocker)
		if isRW != c.rw || isOpt == c.rw {
			t.Fatalf("%s (%T): RWLocker %v, OptimisticLocker %v", e.Name, l, isRW, isOpt)
		}
	}
	for _, bad := range []string{"rw:Gated", "seq:TwoLane", "rw:bogus", "rw:", "occ:"} {
		if _, ok := Lookup(bad); ok {
			t.Errorf("Lookup(%q) resolved; want rejection", bad)
		}
	}
	// Derived entries flow through Select like catalog rows.
	es, err := Select("rw:MCS,seq:MCS")
	if err != nil || len(es) != 2 {
		t.Fatalf("Select over combinator specs: %v, err %v", es, err)
	}
}

// The full decorator pipeline must preserve the read-path surfaces of
// read-capable entries — a chaos veto, a bounded adapter, or lockstat
// instrumentation must never cost a lock its RLock/OptimisticRead.
func TestBuildPreservesReadSurfaces(t *testing.T) {
	opts := []Option{WithChaosVeto(""), WithBounded(), WithStats(nil)}
	for _, name := range []string{"RW-Recipro", "GoRWMutex", "rw:MCS"} {
		l, err := Build(name, opts...)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		rw, ok := l.(rwlock.RWLocker)
		if !ok {
			t.Fatalf("built %s lost its RWLocker surface (%T)", name, l)
		}
		rw.RLock()
		rw.RUnlock()
		rw.Lock()
		rw.Unlock()
	}
	for _, name := range []string{"Seq-Recipro", "OCC-Recipro", "seq:TKT", "occ:CLH"} {
		l, err := Build(name, opts...)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		opt, ok := l.(rwlock.OptimisticLocker)
		if !ok {
			t.Fatalf("built %s lost its OptimisticLocker surface (%T)", name, l)
		}
		s := opt.ReadBegin()
		_ = opt.ReadValidate(s) // may be vetoed; must not panic
		ran := false
		opt.OptimisticRead(func() { ran = true })
		if !ran {
			t.Fatalf("built %s OptimisticRead never ran its section", name)
		}
		opt.Lock()
		opt.Unlock()
	}
}

func TestBoundedTier(t *testing.T) {
	cases := map[string]string{
		"Recipro": "native", "MCS": "native", "TWA": "polling",
		"HemLock": "polling", "Gated": "-", "TwoLane": "-",
	}
	for name, want := range cases {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if got := e.BoundedTier(); got != want {
			t.Errorf("%s.BoundedTier() = %q, want %q", name, got, want)
		}
	}
}
