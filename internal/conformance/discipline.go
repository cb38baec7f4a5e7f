package conformance

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bounded"
	"repro/internal/clock"
	"repro/internal/registry"
)

// Discipline classifies what a lock does when Unlock is called on an
// unlocked instance — a caller bug, but one whose consequences differ
// per algorithm and must not drift silently.
type Discipline int

const (
	// DisciplineTolerate: the misuse is absorbed; the lock stays
	// usable. (It may still corrupt fairness or admit a phantom
	// permit — tolerate means "does not panic or wedge", not
	// "harmless".)
	DisciplineTolerate Discipline = iota
	// DisciplinePanic: the misuse panics (recoverable), the Go
	// idiom for sync.Mutex-style "unlock of unlocked mutex" —
	// except sync.Mutex itself throws unrecoverably, so the
	// runtime family is exempt from this check.
	DisciplinePanic
	// DisciplineWedge: the misuse silently corrupts the handoff
	// state so subsequent acquisitions block forever (e.g. a ticket
	// lock whose grant cursor advances past its ticket counter).
	DisciplineWedge
)

func (d Discipline) String() string {
	switch d {
	case DisciplinePanic:
		return "panics"
	case DisciplineWedge:
		return "wedges"
	default:
		return "tolerates"
	}
}

// unlockDiscipline declares every entry's expected unlock-of-unlocked
// behavior. Completeness (every catalog entry present or runtime-
// family) is enforced by the package tests; CheckUnlockDiscipline
// enforces that observed behavior matches the declaration.
var unlockDiscipline = map[string]Discipline{
	"TKT":            DisciplineWedge,
	"MCS":            DisciplinePanic,
	"CLH":            DisciplinePanic,
	"TWA":            DisciplineWedge,
	"HemLock":        DisciplinePanic,
	"Recipro":        DisciplineTolerate,
	"TAS":            DisciplineTolerate,
	"TTAS":           DisciplineTolerate,
	"ABQL":           DisciplineTolerate,
	"Chen":           DisciplineTolerate,
	"Retrograde":     DisciplineWedge,
	"RetroRand":      DisciplineWedge,
	"Recipro-L2":     DisciplineTolerate,
	"Recipro-L3":     DisciplinePanic,
	"Recipro-L4":     DisciplinePanic,
	"Recipro-L5":     DisciplinePanic,
	"Recipro-L6":     DisciplinePanic,
	"Gated":          DisciplineTolerate,
	"TwoLane":        DisciplineWedge,
	"Fair":           DisciplineTolerate,
	"Recipro-CTR":    DisciplineTolerate,
	"Recipro-L2park": DisciplineTolerate,
	"FutexMutex":     DisciplineTolerate,
	// The read-path combinators forward the stray Unlock to their inner
	// Recipro, which absorbs it (the seqlock stamp parity is corrupted,
	// but the lock itself stays usable — the tolerate contract).
	"RW-Recipro":  DisciplineTolerate,
	"Seq-Recipro": DisciplineTolerate,
	"OCC-Recipro": DisciplineTolerate,
}

// DeclaredDiscipline returns the declared unlock-of-unlocked class for
// an entry (ok=false for the runtime family, which throws unrecoverably
// inside the Go runtime and cannot be probed).
func DeclaredDiscipline(e registry.Entry) (Discipline, bool) {
	if e.Family == registry.FamilyRuntime {
		return 0, false
	}
	d, ok := unlockDiscipline[e.Name]
	return d, ok
}

// CheckUnlockDiscipline performs an unlock on a fresh (unlocked)
// instance and verifies the outcome matches the entry's declared
// Discipline. Wedge verification needs TryLock (a bounded probe of the
// corrupted lock); tolerate verification re-acquires the lock with a
// timeout guard.
func CheckUnlockDiscipline(e registry.Entry) error {
	want, ok := DeclaredDiscipline(e)
	if !ok {
		if e.Family == registry.FamilyRuntime {
			return skipError("runtime mutex throws unrecoverably on unlock-of-unlocked")
		}
		return fmt.Errorf("entry %s has no declared unlock discipline", e.Name)
	}

	l := e.New(nil)
	panicked := false
	func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		l.Unlock()
	}()

	if panicked != (want == DisciplinePanic) {
		got := DisciplineTolerate
		if panicked {
			got = DisciplinePanic
		}
		return fmt.Errorf("unlock-of-unlocked: observed %v, declared %v", got, want)
	}
	if panicked {
		return nil
	}

	usable := probeUsable(l)
	switch {
	case want == DisciplineWedge && usable:
		return fmt.Errorf("unlock-of-unlocked: lock still usable, but declared %v", want)
	case want == DisciplineTolerate && !usable:
		return fmt.Errorf("unlock-of-unlocked: lock wedged, but declared %v", want)
	}
	return nil
}

// probeUsable reports whether l can still complete an acquisition
// within a short budget. Locks with TryLock are probed non-blockingly;
// the rest get a goroutine with a timeout (which leaks a spinning
// goroutine only if a declared-tolerate lock actually wedged — i.e.
// only on the way to a failure report).
func probeUsable(l sync.Locker) bool {
	const budget = 500 * time.Millisecond
	if tl, ok := l.(bounded.TryLocker); ok {
		deadline := clock.Wall.Now() + budget
		for clock.Wall.Now() < deadline {
			if tl.TryLock() {
				tl.Unlock()
				return true
			}
			clock.Wall.Sleep(100 * time.Microsecond)
		}
		return false
	}
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	// ParkFor returns false when done fires before the budget — i.e.
	// the Lock/Unlock pair completed and the lock is usable.
	return !clock.Wall.ParkFor(budget, done)
}
