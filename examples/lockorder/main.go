// LockOrder: the §5 "real-world environment" tooling around the lock —
// Reciprocating Locks wrapped in the lockdep-style ordering validator
// (the kernel facility the paper cites for its plural-locking
// requirement).
//
// Try: go run ./examples/lockorder
package main

import (
	"fmt"

	"repro"
	"repro/internal/lockdep"
)

func main() {
	dep := lockdep.New()
	dep.OnViolation = func(v *lockdep.Violation) {
		fmt.Println("  !! lockdep report:", v.Error())
	}

	accounts := dep.Wrap(new(repro.Lock), "accounts")
	journal := dep.Wrap(new(repro.Lock), "journal")
	cache := dep.Wrap(new(repro.Lock), "cache")

	w := dep.NewWorker()

	fmt.Println("consistent ordering (accounts → journal → cache): fine")
	for i := 0; i < 3; i++ {
		w.Lock(accounts)
		w.Lock(journal)
		w.Lock(cache)
		fmt.Println("  holding:", w.Held())
		// Imbalanced, non-LIFO release — legal and expected (§5).
		w.Unlock(accounts)
		w.Unlock(cache)
		w.Unlock(journal)
	}

	fmt.Println("\ninverted ordering (cache before accounts): flagged before it can deadlock")
	w.Lock(cache)
	w.Lock(accounts) // lockdep reports the cycle cache→accounts→...→cache
	w.Unlock(accounts)
	w.Unlock(cache)

	fmt.Println("\ndone — the inversion was detected without needing an actual deadlock")
}
