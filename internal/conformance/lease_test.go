package conformance

import (
	"strings"
	"testing"

	"repro/internal/registry"
)

// Named lease-client coverage: the three queue-lock families the
// roadmap calls out must pass the expiry → backoff → re-acquire cycle
// under chaos. TestSuiteAllEntries covers every entry; this pins the
// three by name so a registry reshuffle cannot silently drop them.
func TestLeaseReacquireCoreFamilies(t *testing.T) {
	want := []string{"recipro", "mcs", "clh"}
	for _, frag := range want {
		found := false
		for _, e := range registry.All() {
			if !strings.Contains(strings.ToLower(e.Name), frag) || !e.Boundable() {
				continue
			}
			found = true
			if err := CheckLeaseReacquire(e, Options{Seed: 7}); err != nil {
				t.Errorf("%s: %v", e.Name, err)
			}
			break
		}
		if !found {
			t.Errorf("no boundable registry entry matching %q", frag)
		}
	}
}
