package registry

import (
	"testing"

	"repro/internal/simlocks"
)

// Every declared SimTwin must resolve: a twin name that no longer
// resolves in simlocks would turn the differential conformance tier
// into a hard failure. The paper-set queue/ticket locks and the two
// Reciprocating variants with simulator models are required to stay in
// the differential tier.
func TestSimTwinClaims(t *testing.T) {
	required := map[string]bool{
		"Recipro": false, "Recipro-L2": false,
		"CLH": false, "MCS": false, "TKT": false,
	}
	for _, e := range All() {
		if e.SimTwin == "" {
			continue
		}
		mk := simlocks.ByName(e.SimTwin)
		if mk == nil {
			t.Errorf("%s: sim twin %q does not resolve via simlocks.ByName", e.Name, e.SimTwin)
			continue
		}
		if got := mk().Name(); got != e.SimTwin {
			t.Errorf("%s: simlocks.ByName(%q) returned model %q", e.Name, e.SimTwin, got)
		}
		if _, ok := required[e.Name]; ok {
			required[e.Name] = true
		}
	}
	for name, seen := range required {
		if !seen {
			t.Errorf("%s must declare a sim twin (differential conformance floor)", name)
		}
	}
}
