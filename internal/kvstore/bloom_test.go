package kvstore

import "testing"

// At runBitsPerKey bits per key, a run's filter must rule out nearly
// every absent key: 64 Ki present Key ids, probed with 1 Mi absent
// ones. A classic 10-bit filter passes about 0.8% of absent keys;
// keeping a key's probes in one word roughly doubles that (1.7% in the
// Poisson model), and this hash passes 1.81%. The hash is
// deterministic, so the rate is exact, and the bound leaves no room
// for a hash whose bits correlate.
func TestRunFilterFalsePositiveRate(t *testing.T) {
	const present, absent = 1 << 16, 1 << 20
	f := newBloom(present * runBitsPerKey)
	for i := uint64(0); i < present; i++ {
		f.add(newProbe(Key(i)))
	}
	fp := 0
	for i := uint64(present); i < present+absent; i++ {
		if f.mayContain(newProbe(Key(i))) {
			fp++
		}
	}
	if rate := float64(fp) / absent; rate > 0.02 {
		t.Fatalf("false-positive rate %.3f%% (%d of %d absent keys), want at most 2%%", 100*rate, fp, absent)
	}
}
