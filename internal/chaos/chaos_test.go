package chaos

import (
	"sync"
	"testing"
	"time"
)

// Disabled points must be strict no-ops: Hit returns immediately, Fail
// and Wake report false, and no counters move.
func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	p := NewPoint("test.disabled")
	for i := 0; i < 1000; i++ {
		p.Hit()
		if p.Fail() {
			t.Fatal("Fail returned true while disabled")
		}
		if p.Wake() {
			t.Fatal("Wake returned true while disabled")
		}
	}
	if p.calls.Load() != 0 {
		t.Fatalf("disabled point advanced its stream: %d calls", p.calls.Load())
	}
	if Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
}

// The same seed must reproduce the same injection decisions, point by
// point and call by call — that is the property that makes a failing
// torture seed replayable.
func TestDeterministicPerSeed(t *testing.T) {
	p := NewPoint("test.determinism")
	cfg := Config{Seed: 99, TryFail: 0.3, SpuriousWake: 0.2}

	run := func() []bool {
		Enable(cfg)
		defer Disable()
		out := make([]bool, 0, 400)
		for i := 0; i < 200; i++ {
			out = append(out, p.Fail())
		}
		for i := 0; i < 200; i++ {
			out = append(out, p.Wake())
		}
		return out
	}

	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical seeds: %v vs %v", i, a[i], b[i])
		}
	}

	// A different seed must produce a different decision sequence (the
	// probability of 400 identical draws at these rates is negligible).
	cfg.Seed = 100
	c := run()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical decision streams")
	}
}

// Injection rates must track the configured probabilities and the
// report must attribute them to the right point.
func TestRatesAndReport(t *testing.T) {
	p := NewPoint("test.rates")
	Enable(Config{Seed: 7, TryFail: 0.5})
	defer Disable()
	const n = 4000
	fails := 0
	for i := 0; i < n; i++ {
		if p.Fail() {
			fails++
		}
	}
	if fails < n*4/10 || fails > n*6/10 {
		t.Fatalf("TryFail=0.5 produced %d/%d failures", fails, n)
	}
	for _, ps := range Report() {
		if ps.Name != "test.rates" {
			continue
		}
		if ps.Calls != n || ps.Fails != uint64(fails) {
			t.Fatalf("report = %+v, want calls=%d fails=%d", ps, n, fails)
		}
		if ps.Injected() != uint64(fails) {
			t.Fatalf("Injected() = %d, want %d", ps.Injected(), fails)
		}
		return
	}
	t.Fatal("test.rates missing from report")
}

// Enable must zero the counters of every registered point so reports
// cover exactly one run.
func TestEnableResetsCounters(t *testing.T) {
	p := NewPoint("test.reset")
	Enable(Config{Seed: 1, TryFail: 1})
	p.Fail()
	if p.calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", p.calls.Load())
	}
	Enable(Config{Seed: 1, TryFail: 1})
	defer Disable()
	if p.calls.Load() != 0 {
		t.Fatalf("calls = %d after re-Enable, want 0", p.calls.Load())
	}
}

// Hit with delays enabled must actually sleep but stay within the
// configured cap (loose upper check only: scheduling noise).
func TestHitDelayBounded(t *testing.T) {
	p := NewPoint("test.delay")
	Enable(Config{Seed: 3, Delay: 1})
	defer Disable()
	start := time.Now()
	for i := 0; i < 50; i++ {
		p.Hit()
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("50 capped delays took %v", el)
	}
	if p.delays.Load() == 0 {
		t.Fatal("Delay=1 never injected a delay")
	}
}

// Concurrent hits on one point must be race-free (the stream index is
// an atomic counter; decisions stay deterministic per index even if
// indices are claimed by different goroutines).
func TestConcurrentHits(t *testing.T) {
	p := NewPoint("test.concurrent")
	Enable(Config{Seed: 5, Preempt: 0.2, TryFail: 0.2, SpuriousWake: 0.2})
	defer Disable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Hit()
				p.Fail()
				p.Wake()
			}
		}()
	}
	wg.Wait()
	if got := p.calls.Load(); got != 8*500*3 {
		t.Fatalf("calls = %d, want %d", got, 8*500*3)
	}
}

// The recent-injection ring must record fired injections oldest-first
// with their point names, cap at the ring size, and reset on Enable.
func TestRecentRing(t *testing.T) {
	p := NewPoint("test.recent")
	Enable(Config{Seed: 2, TryFail: 1})
	fired := 0
	for i := 0; i < recentCap+10; i++ {
		if p.Fail() {
			fired++
		}
	}
	if fired != recentCap+10 {
		t.Fatalf("TryFail=1 fired %d/%d", fired, recentCap+10)
	}
	recent := Recent()
	if len(recent) != recentCap {
		t.Fatalf("ring holds %d entries, want %d", len(recent), recentCap)
	}
	for i, inj := range recent {
		if i > 0 && inj.Seq != recent[i-1].Seq+1 {
			t.Fatalf("ring not oldest-first at %d: %d after %d", i, inj.Seq, recent[i-1].Seq)
		}
		if inj.Point != "test.recent" || inj.Kind != "fail" {
			t.Fatalf("entry %d = %+v", i, inj)
		}
	}
	if last := recent[len(recent)-1]; last.Seq != uint64(fired) {
		t.Fatalf("newest Seq = %d, want %d", last.Seq, fired)
	}
	if got, want := recent[0].String(), "test.recent:fail"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}

	// Enable resets the ring and the point's counters.
	Enable(Config{Seed: 2, TryFail: 1})
	defer Disable()
	if got := Recent(); len(got) != 0 {
		t.Fatalf("ring not reset by Enable: %d entries", len(got))
	}
	if p.fails.Load() != 0 {
		t.Fatalf("point counter not reset by Enable: %d", p.fails.Load())
	}
}
