package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The Figure 1 simulator files take minutes to regenerate; make
// figures-check compares them instead.
var slowGolden = map[string]bool{"fig1_sim_intel": true, "fig1_sim_arm": true}

// TestTrackBFilesMatchResults regenerates every Track B results file
// except the Figure 1 pair and requires it byte-identical to the
// committed copy under results/. A change that moves a simulated
// count, a cost-model figure or a table's layout fails here; if the
// change is intended, regenerate with go run ./cmd/figures -only=<stem>.
func TestTrackBFilesMatchResults(t *testing.T) {
	for _, f := range Files {
		if f.Track != "B" || slowGolden[f.Stem] {
			continue
		}
		t.Run(f.Stem, func(t *testing.T) {
			path := filepath.Join("..", "..", "results", f.Name())
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Render(QuickBudget); !bytes.Equal(got, want) {
				t.Fatalf("%s differs from a regeneration; %s\nregenerate with: go run ./cmd/figures -only=%s",
					path, firstDiff(got, want), f.Stem)
			}
		})
	}
}

// TestFilesOneTrackEach pins the list's shape: unique stems, every
// file on track A or B, and every Track A file opening with the
// Track A note.
func TestFilesOneTrackEach(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Files {
		if seen[f.Stem] {
			t.Fatalf("stem %q listed twice", f.Stem)
		}
		seen[f.Stem] = true
		switch {
		case f.Track == "A" && f.Note != TrackANote:
			t.Fatalf("%s: Track A file without the Track A note", f.Stem)
		case f.Track == "B" && f.Note == TrackANote:
			t.Fatalf("%s: Track B file under the Track A note", f.Stem)
		case f.Track != "A" && f.Track != "B":
			t.Fatalf("%s: track %q", f.Stem, f.Track)
		}
	}
}

// TestResultsDirMatchesFiles requires results/ to hold exactly one
// file per stem in Files: a deleted stem must take its file with it,
// and every listed stem must have a committed file.
func TestResultsDirMatchesFiles(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]bool{}
	for _, n := range names {
		committed[filepath.Base(n)] = true
	}
	for _, f := range Files {
		if !committed[f.Name()] {
			t.Errorf("stem %q has no results/%s", f.Stem, f.Name())
		}
		delete(committed, f.Name())
	}
	for n := range committed {
		t.Errorf("results/%s is no stem in Files", n)
	}
}

// firstDiff names the first line at which got and want differ; they
// must differ somewhere.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if gl, wl := lineAt(g, i), lineAt(w, i); gl != wl {
			return fmt.Sprintf("first difference at line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return strconv.Quote(lines[i])
	}
	return "(end of file)"
}
