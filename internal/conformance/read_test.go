package conformance

import (
	"testing"

	"repro/internal/registry"
	"repro/internal/rwlock"
)

// The rendered columns come from CheckNames; Run must emit exactly
// that list, in that order (the cmd/conformance header once drifted
// from the suite — this pins them together).
func TestRunMatchesCheckNames(t *testing.T) {
	e, ok := registry.Lookup("Recipro")
	if !ok {
		t.Fatal("Recipro missing from catalog")
	}
	r := Run(e, testOptions())
	names := CheckNames()
	if len(r.Results) != len(names) {
		t.Fatalf("Run emitted %d results, CheckNames lists %d", len(r.Results), len(names))
	}
	for i, c := range r.Results {
		if c.Check != names[i] {
			t.Fatalf("result %d is %q, CheckNames says %q", i, c.Check, names[i])
		}
	}
}

// Read paths bind to behavior: every entry whose lock offers RLock or
// an optimistic read must pass CheckReadSharing, and an entry offering
// neither must skip.
func TestCheckReadSharingPerClaim(t *testing.T) {
	o := testOptions()
	for _, e := range registry.All() {
		e := e
		l := e.New(nil)
		_, isRW := l.(rwlock.RWLocker)
		_, isOpt := l.(rwlock.OptimisticLocker)
		reads := isRW || isOpt
		t.Run(e.Name, func(t *testing.T) {
			err := CheckReadSharing(e, o)
			switch {
			case !reads && !Skipped(err):
				t.Fatalf("entry without read caps did not skip: %v", err)
			case reads && err != nil:
				t.Fatalf("read-capable entry failed: %v", err)
			}
		})
	}
}

// Derived combinators over non-default bases go through the same
// check: the dynamic lookup path must yield read-conformant locks too.
func TestCheckReadSharingDerived(t *testing.T) {
	o := testOptions()
	for _, name := range []string{"rw:MCS", "seq:TKT", "occ:CLH"} {
		e, ok := registry.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if err := CheckReadSharing(e, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
