package main

import (
	"strings"
	"testing"
)

// "Budget exhausted" and "all schedules verified" are different claims
// and must stay distinguishable in both the output and the exit code:
// a CI gate keying on exit 0 must never mistake a truncated search for
// a proof.
func TestRunDistinguishesVerifiedFromIncomplete(t *testing.T) {
	var out, errOut strings.Builder

	// Recipro at 3×1 takes about a hundred schedules: comfortably
	// within the default budget, beyond a budget of 10.
	if code := run([]string{"-lock=Recipro", "-threads=3", "-episodes=1"}, &out, &errOut); code != 0 {
		t.Fatalf("full exploration: exit %d, want 0 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "VERIFIED") || strings.Contains(out.String(), "INCOMPLETE") {
		t.Fatalf("full exploration output %q must say VERIFIED", out.String())
	}

	out.Reset()
	if code := run([]string{"-lock=Recipro", "-threads=3", "-episodes=1", "-budget=10"}, &out, &errOut); code != 3 {
		t.Fatalf("truncated exploration: exit %d, want 3", code)
	}
	if !strings.Contains(out.String(), "INCOMPLETE") || strings.Contains(out.String(), "VERIFIED") {
		t.Fatalf("truncated exploration output %q must say INCOMPLETE, not VERIFIED", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-lock=no-such-lock"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown lock: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown lock") {
		t.Fatalf("stderr %q must name the unknown lock", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

// Variant locks must be addressable by name now that ByName searches
// the whole simlocks catalog (base set, variants, fairness variants).
func TestRunResolvesVariantNames(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-lock=Recipro-L2", "-threads=2", "-episodes=1"}, &out, &errOut); code != 0 {
		t.Fatalf("Recipro-L2: exit %d, want 0 (stderr %q, out %q)", code, errOut.String(), out.String())
	}
}
