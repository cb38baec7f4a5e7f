package main

import (
	"strings"
	"testing"
)

func TestStatusStrings(t *testing.T) {
	for s, want := range map[status]string{
		verified: "VERIFIED", violation: "FAIL", incomplete: "INCOMPLETE",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s, want)
		}
	}
}

// TestExitFolding pins the dominance order: a violation anywhere beats
// incompleteness anywhere beats verified, and the codes match the
// documented CLI contract (0/1/3; 2 is reserved for usage errors).
func TestExitFolding(t *testing.T) {
	cases := []struct {
		in   []status
		want int
	}{
		{nil, exitVerified},
		{[]status{verified, verified}, 0},
		{[]status{verified, incomplete}, 3},
		{[]status{incomplete, violation, verified}, 1},
		{[]status{violation}, 1},
	}
	for _, c := range cases {
		if got := exitCode(c.in...); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	if exitVerified != 0 || exitViolation != 1 || exitUsage != 2 || exitIncomplete != 3 {
		t.Error("exit code constants drifted from the documented convention")
	}
}

func TestLine(t *testing.T) {
	got := line("TKT", verified, "all 100 interleavings pass")
	if !strings.HasPrefix(got, "TKT") || !strings.Contains(got, "VERIFIED: all 100") {
		t.Errorf("line = %q", got)
	}
	multi := line("x", violation, "first\nsecond")
	if !strings.Contains(multi, "\n    second") {
		t.Errorf("multi-line detail not indented: %q", multi)
	}
}
