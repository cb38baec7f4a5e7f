package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The §4 narration is a deterministic simulator trace, so the full
// -scenario=all output is pinned byte for byte. A mismatch names the
// first differing line.
func TestScenariosGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario=all"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("narration differs from testdata/all.golden at line %d:\n got: %q\nwant: %q", i+1, g, e)
		}
	}
}

func TestUnknownScenarioExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario=bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
