package main

import (
	"fmt"
	"strings"
)

// status is one lock's outcome: exactly one of VERIFIED, FAIL, or
// INCOMPLETE. The process exit code keeps the three distinguishable,
// so a CI gate keying on exit 0 can never mistake a truncated search
// for a proof.
type status int

const (
	// verified: the full (bounded) search space was explored and no
	// invariant failed — a proof relative to the stated bounds.
	verified status = iota
	// violation: a failing schedule was found.
	violation
	// incomplete: no violation, but the search was truncated (budget
	// or depth); explicitly not a verification result.
	incomplete
)

func (s status) String() string {
	switch s {
	case verified:
		return "VERIFIED"
	case violation:
		return "FAIL"
	case incomplete:
		return "INCOMPLETE"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Process exit codes. exitUsage is reserved for flag and argument
// errors, which is why incomplete maps to 3, not 2.
const (
	exitVerified   = 0
	exitViolation  = 1
	exitUsage      = 2
	exitIncomplete = 3
)

// exitCode folds per-target statuses into the process exit code: any
// violation dominates, then any incomplete, else verified. No
// statuses folds to exitVerified (vacuously checked).
func exitCode(statuses ...status) int {
	code := exitVerified
	for _, s := range statuses {
		switch s {
		case violation:
			return exitViolation
		case incomplete:
			code = exitIncomplete
		}
	}
	return code
}

// line renders the conventional one-line report: a padded target name,
// the status word, and the detail. Multi-line details are indented
// under the first line.
func line(name string, s status, detail string) string {
	text := fmt.Sprintf("%-14s %s: %s", name, s, detail)
	return strings.ReplaceAll(text, "\n", "\n    ")
}
