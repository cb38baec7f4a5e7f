// Root benchmark suite: one bench family per table/figure of the
// paper's evaluation, plus the ablation benches called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// Simulator-backed benches report their scientific quantity via
// b.ReportMetric (events/episode, episodes/kcycle); real-execution
// benches report ns/op. See EXPERIMENTS.md for the paper-vs-measured
// discussion.
package repro_test

import (
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/atomicstruct"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lockstat"
	"repro/internal/mutexbench"
	"repro/internal/registry"
	"repro/internal/simlocks"
)

// contend runs b.N critical sections spread across g goroutines over
// one lock, with an occasional in-CS yield so that queues actually
// form on a single-processor scheduler.
func contend(b *testing.B, l sync.Locker, g int) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N / g
	if per == 0 {
		per = 1
	}
	b.ResetTimer()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Lock()
				if i&63 == 0 {
					runtime.Gosched()
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkUncontended is Figure 1's T=1 point: single-thread
// acquire+release latency for every lock in the repository.
func BenchmarkUncontended(b *testing.B) {
	for _, lf := range registry.All() {
		lf := lf
		b.Run(lf.Name, func(b *testing.B) {
			l := lf.New(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

// BenchmarkFig1aMaxContention: §7.1 maximal contention on real
// goroutines (empty critical and non-critical sections).
func BenchmarkFig1aMaxContention(b *testing.B) {
	for _, lf := range registry.Paper() {
		lf := lf
		for _, g := range []int{2, 4, 8} {
			g := g
			b.Run(lf.Name+"/g"+itoa(g), func(b *testing.B) {
				contend(b, lf.New(nil), g)
			})
		}
	}
}

// BenchmarkFig1bModerateContention: §7.1 with the private-PRNG
// non-critical section.
func BenchmarkFig1bModerateContention(b *testing.B) {
	for _, lf := range registry.Paper() {
		lf := lf
		b.Run(lf.Name, func(b *testing.B) {
			res := mutexbench.Run(lf, mutexbench.Config{
				Threads:     4,
				Iterations:  b.N/4 + 1,
				CSSteps:     1,
				NCSMaxSteps: 250,
				Runs:        1,
			})
			b.ReportMetric(res.Mops, "Mops")
		})
	}
}

// BenchmarkFig1Sim: the Track B modeled-throughput curves behind
// Figures 1a–1d; episodes/kcycle is the scientific metric.
func BenchmarkFig1Sim(b *testing.B) {
	for _, name := range simlocks.Names() {
		name := name
		for _, threads := range []int{8, 32} {
			threads := threads
			b.Run(name+"/T"+itoa(threads), func(b *testing.B) {
				var tp float64
				for i := 0; i < b.N; i++ {
					out := simlocks.Run(simlocks.ByName(name), simlocks.Config{
						Threads:  threads,
						Episodes: 100,
						Mode:     coherence.Timed,
						CSShared: true,
						CSWork:   10,
						NodeCPUs: 18,
						Seed:     1,
					})
					tp = out.Throughput
				}
				b.ReportMetric(tp, "episodes/kcycle")
			})
		}
	}
}

// BenchmarkTable1Invalidations: coherence events per episode under
// sustained contention (Table 1's invalidation column).
func BenchmarkTable1Invalidations(b *testing.B) {
	for _, name := range simlocks.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var ev float64
			for i := 0; i < b.N; i++ {
				out := simlocks.Run(simlocks.ByName(name), simlocks.Config{
					Threads:  10,
					Episodes: 200,
					Warmup:   40,
					Mode:     coherence.RoundRobin,
					CSWork:   5,
					Seed:     1,
				})
				ev = out.EventsPerEpisode
			}
			b.ReportMetric(ev, "events/episode")
		})
	}
}

// BenchmarkFig2aExchange and BenchmarkFig2bCAS: §7.2's lock-striped
// atomic struct operations.
func BenchmarkFig2aExchange(b *testing.B) {
	for _, lf := range registry.Paper() {
		lf := lf
		b.Run(lf.Name, func(b *testing.B) {
			stripe := atomicstruct.NewStripe(64, func() sync.Locker { return lf.New(nil) })
			a := atomicstruct.New[atomicstruct.S](stripe)
			local := atomicstruct.S{A: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				local = a.Exchange(local)
			}
		})
	}
}

func BenchmarkFig2bCAS(b *testing.B) {
	for _, lf := range registry.Paper() {
		lf := lf
		b.Run(lf.Name, func(b *testing.B) {
			stripe := atomicstruct.NewStripe(64, func() sync.Locker { return lf.New(nil) })
			a := atomicstruct.New[atomicstruct.S](stripe)
			cur := a.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for {
					next := cur
					next.A++
					wit, ok := a.CompareExchange(cur, next)
					if ok {
						cur = next
						break
					}
					cur = wit
				}
			}
		})
	}
}

// BenchmarkFig3ReadRandom: §7.3's KV readrandom per lock algorithm.
func BenchmarkFig3ReadRandom(b *testing.B) {
	for _, lf := range registry.Paper() {
		lf := lf
		b.Run(lf.Name, func(b *testing.B) {
			db := kvstore.Open(kvstore.Options{Lock: lf.New(nil), MemTableBytes: 256 << 10})
			kvstore.FillSeq(db, 10_000, 100)
			b.ResetTimer()
			res := kvstore.ReadRandom(db, kvstore.ReadRandomConfig{
				Threads:      4,
				Keyspace:     10_000,
				OpsPerThread: b.N/4 + 1,
			})
			b.ReportMetric(res.Mops, "Mops")
		})
	}
}

// BenchmarkTable2Cycle: cost of the full Table 2 reproduction
// (simulated schedule + cycle analysis).
func BenchmarkTable2Cycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := simlocks.Run(simlocks.ByName("Recipro"), simlocks.Config{
			Threads:  5,
			Episodes: 100,
			Mode:     coherence.RoundRobin,
			Seed:     1,
		})
		if len(out.AdmissionSchedule) == 0 {
			b.Fatal("no schedule")
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationEOSPlacement: eos conveyed through wait elements
// (Listing 1) versus a sequestered lock-body word (Listing 2).
func BenchmarkAblationEOSPlacement(b *testing.B) {
	b.Run("eos-in-element", func(b *testing.B) { contend(b, new(core.Lock), 4) })
	b.Run("eos-in-lockbody", func(b *testing.B) { contend(b, new(core.SimplifiedLock), 4) })
}

// BenchmarkAblationPoliteCAS: conditioning the release CAS on a prior
// load (§4: the paper found no observable benefit).
func BenchmarkAblationPoliteCAS(b *testing.B) {
	b.Run("raw-cas", func(b *testing.B) { contend(b, new(core.Lock), 4) })
	b.Run("polite-cas", func(b *testing.B) { contend(b, &core.Lock{PoliteRelease: true}, 4) })
}

// BenchmarkAblationDoubleSwap: single-swap arrival with eos
// conveyance (Listing 1) versus double-swap arrival (Listings 3/6) on
// the uncontended path, where the second swap is the cost.
func BenchmarkAblationDoubleSwap(b *testing.B) {
	b.Run("single-swap", func(b *testing.B) {
		l := new(core.Lock)
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("double-swap-relay", func(b *testing.B) {
		l := new(core.RelayLock)
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("double-swap-combined", func(b *testing.B) {
		l := new(core.CombinedLock)
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
}

// BenchmarkAblationHandleReuse: the pool-backed Lock/Unlock interface
// versus the allocation-free explicit wait-element API.
func BenchmarkAblationHandleReuse(b *testing.B) {
	b.Run("pool", func(b *testing.B) {
		l := new(core.Lock)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	b.Run("explicit-element", func(b *testing.B) {
		l := new(core.Lock)
		e := new(core.WaitElement)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tok := l.Acquire(e)
			l.Release(tok)
		}
	})
}

// BenchmarkAblationPadding: two independent hot locks adjacent in
// memory (sharing cache sectors) versus sector-padded — the false-
// sharing cost the paper's 128-byte sequestration avoids.
func BenchmarkAblationPadding(b *testing.B) {
	run := func(b *testing.B, l0, l1 sync.Locker) {
		var wg sync.WaitGroup
		per := b.N/2 + 1
		b.ResetTimer()
		for w := 0; w < 2; w++ {
			l := l0
			if w == 1 {
				l = l1
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					l.Lock()
					l.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	b.Run("adjacent", func(b *testing.B) {
		var pair [2]core.Lock // lock words share a sector
		run(b, &pair[0], &pair[1])
	})
	b.Run("sequestered", func(b *testing.B) {
		type padded struct {
			l core.Lock
			_ [128]byte
		}
		var pair [2]padded
		run(b, &pair[0].l, &pair[1].l)
	})
}

// BenchmarkVariants: uncontended cost of every Reciprocating variant,
// side by side.
func BenchmarkVariants(b *testing.B) {
	variants := []struct {
		name string
		mk   func() sync.Locker
	}{
		{"Listing1", func() sync.Locker { return new(repro.Lock) }},
		{"Listing2", func() sync.Locker { return new(repro.SimplifiedLock) }},
		{"Listing3", func() sync.Locker { return new(repro.RelayLock) }},
		{"Listing4", func() sync.Locker { return new(repro.FetchAddLock) }},
		{"Listing5", func() sync.Locker { return new(repro.SimplifiedEOSLock) }},
		{"Listing6", func() sync.Locker { return new(repro.CombinedLock) }},
		{"Gated", func() sync.Locker { return new(repro.GatedLock) }},
		{"TwoLane", func() sync.Locker { return new(repro.TwoLaneLock) }},
		{"Fair", func() sync.Locker { return new(repro.FairLock) }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			l := v.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkLockstatOverhead is the telemetry guard: the same
// uncontended Reciprocating acquire/release, bare vs. wrapped with a
// nil-Stats Instrumented (must stay within 10% of bare — the wrapper
// is designed to be left on permanently) vs. fully enabled telemetry
// (the honest price of measuring). All three arms drive the lock
// through sync.Locker so dispatch cost is identical.
func BenchmarkLockstatOverhead(b *testing.B) {
	arms := []struct {
		name string
		mk   func() sync.Locker
	}{
		{"bare", func() sync.Locker { return new(core.Lock) }},
		{"nil-stats", func() sync.Locker { return lockstat.Wrap(new(core.Lock), nil) }},
		{"enabled", func() sync.Locker { return lockstat.Wrap(new(core.Lock), lockstat.New()) }},
	}
	for _, arm := range arms {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			l := arm.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}
