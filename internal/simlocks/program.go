package simlocks

import (
	"fmt"

	"repro/internal/coherence"
)

// CounterProgram is the model-checking program over a simulated lock:
// each of threads CPUs runs episodes of acquire, admit, counter++ (a
// load and a store) and release. A run fails on a lost increment
// (mutual exclusion violated), a MESI invariant break, a deadlock or a
// livelock. Its Run method is the run function explore.Search takes,
// with coherence.Independent as the independence relation.
func CounterProgram(mk Factory, threads, episodes int) *coherence.Program {
	var counter coherence.Addr
	return &coherence.Program{
		Build: func() (*coherence.System, func(c *coherence.Ctx)) {
			sys := coherence.NewSystem(coherence.Config{CPUs: threads})
			lock := mk()
			lock.Setup(sys, threads)
			counter = sys.Alloc("counter")
			return sys, func(c *coherence.Ctx) {
				for i := 0; i < episodes; i++ {
					lock.Acquire(c, c.CPU)
					c.Admit()
					v := c.Load(counter)
					c.Store(counter, v+1)
					lock.Release(c, c.CPU)
				}
			}
		},
		Check: func(sys *coherence.System, _ coherence.Result) error {
			if got, want := sys.Peek(counter), uint64(threads*episodes); got != want {
				return fmt.Errorf("counter = %d, want %d (mutual exclusion violated)", got, want)
			}
			return sys.CheckInvariants()
		},
	}
}
