package registry

import (
	"os"
	"strings"
	"testing"
)

func TestLocksFlagDefault(t *testing.T) {
	f := NewLocksFlag("paper")
	if f.String() != "paper" {
		t.Fatalf("default spec = %q", f.String())
	}
	lfs, listed, err := f.Resolve(nil)
	if err != nil || listed {
		t.Fatalf("Resolve default: listed=%v err=%v", listed, err)
	}
	if len(lfs) != len(Paper()) {
		t.Fatalf("default resolved %d entries, want the paper set", len(lfs))
	}
}

func TestLocksFlagSelection(t *testing.T) {
	f := NewLocksFlag("all")
	if err := f.Set("mcs,L2park"); err != nil {
		t.Fatal(err)
	}
	lfs, listed, err := f.Resolve(nil)
	if err != nil || listed {
		t.Fatalf("listed=%v err=%v", listed, err)
	}
	if len(lfs) != 2 || lfs[0].Name != "MCS" || lfs[1].Name != "Recipro-L2park" {
		t.Fatalf("resolved %+v", lfs)
	}

	f.Set("bogus")
	if _, _, err := f.Resolve(nil); err == nil {
		t.Fatal("bogus spec resolved")
	}
}

func TestLocksFlagList(t *testing.T) {
	f := NewLocksFlag("paper")
	f.Set("list")
	var buf strings.Builder
	lfs, listed, err := f.Resolve(&buf)
	if err != nil || !listed || lfs != nil {
		t.Fatalf("list: entries=%v listed=%v err=%v", lfs, listed, err)
	}
	out := buf.String()
	if !strings.Contains(out, "Lock catalog") {
		t.Fatal("list output missing title")
	}
	// Every catalog row and every capability column header must appear.
	for _, e := range All() {
		if !strings.Contains(out, e.Name) {
			t.Errorf("list output missing entry %s", e.Name)
		}
	}
	for _, h := range []string{"TryLock", "Bounded", "Park", "AllocFree", "Family", "Paper", "SimTwin", "ReadShared", "OptRead"} {
		if !strings.Contains(out, h) {
			t.Errorf("list output missing column %s", h)
		}
	}
}

// The capability matrix published in ALGORITHMS.md is the one written
// statement of what each lock can do, and it must match the live
// catalog row for row, rendered by the same matrixColumns that
// -locks=list prints: a lock that gains or loses a method, or a
// registry that drifts from the doc, fails here.
func TestDocsMatrixMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../ALGORITHMS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- registry-capability-matrix:begin -->", "<!-- registry-capability-matrix:end -->"
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatal("ALGORITHMS.md lost its registry-capability-matrix markers")
	}

	var rows []string
	for _, line := range strings.Split(doc[i+len(begin):j], "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "| Lock") || strings.HasPrefix(line, "|--") {
			continue
		}
		rows = append(rows, line)
	}
	all := All()
	if len(rows) != len(all) {
		t.Fatalf("ALGORITHMS.md matrix has %d rows, catalog has %d entries", len(rows), len(all))
	}
	for k, e := range all {
		want := "| " + strings.Join(append([]string{e.Name, string(e.Family)}, matrixColumns(e)...), " | ") + " |"
		if rows[k] != want {
			t.Errorf("ALGORITHMS.md matrix row %d:\n  doc:     %s\n  catalog: %s", k, rows[k], want)
		}
	}
}
