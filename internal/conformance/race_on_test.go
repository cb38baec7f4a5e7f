//go:build race

package conformance

// raceEnabled reports whether the race detector is active. The
// broken-lock negative test intentionally violates mutual exclusion
// over a plain guarded counter, which the detector (correctly) reports
// as a data race; the test skips there and runs in plain builds.
const raceEnabled = true
