// Package interpose reproduces the paper's measurement methodology in
// Go terms. The paper implements every user-mode lock inside
// LD_PRELOAD interposition libraries exposing the standard
// pthread_mutex_t interface, "allowing us to change lock
// implementations by varying the LD_PRELOAD environment variable and
// without modifying the application code that uses locks" (§7).
//
// Mutex is the analog: a pthread_mutex_t-shaped lock whose backing
// algorithm is chosen process-wide by the REPRO_LOCK environment
// variable (default: the Reciprocating Lock). Like a trivially
// initialized pthread_mutex, the zero value works with no constructor:
// the backing lock is materialized lazily on first use — the same
// on-demand strategy the paper applies to CLH's dummy node under
// trivial pthread initializers (§7.1).
package interpose

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/registry"
)

// EnvVar names the selection variable.
const EnvVar = "REPRO_LOCK"

// DefaultLock is used when EnvVar is unset.
const DefaultLock = "Recipro"

var (
	implOnce sync.Once
	implName string
	implErr  error
	implNew  func() sync.Locker
)

func resolve() {
	implOnce.Do(func() {
		name := os.Getenv(EnvVar)
		if name == "" {
			name = DefaultLock
		}
		lf, ok := registry.Lookup(name)
		if !ok {
			implErr = fmt.Errorf("interpose: unknown %s=%q", EnvVar, name)
			return
		}
		implName, implNew = lf.Name, func() sync.Locker { return lf.New(nil) }
	})
}

// Implementation reports the selected lock algorithm's name.
func Implementation() (string, error) {
	resolve()
	return implName, implErr
}

// Mutex is an environment-selected mutual-exclusion lock with
// pthread_mutex semantics: trivial (zero-value) initialization,
// non-reentrant, must be unlocked by its holder. It implements
// sync.Locker.
type Mutex struct {
	impl atomic.Pointer[lockBox]
}

type lockBox struct{ l sync.Locker }

func (m *Mutex) get() sync.Locker {
	if b := m.impl.Load(); b != nil {
		return b.l
	}
	resolve()
	if implErr != nil {
		panic(implErr)
	}
	// Lazy, racy-but-idempotent initialization: the loser's lock is
	// discarded, mirroring the paper's on-demand population of
	// trivially initialized mutexes.
	b := &lockBox{l: implNew()}
	if m.impl.CompareAndSwap(nil, b) {
		return b.l
	}
	return m.impl.Load().l
}

// Lock acquires m.
func (m *Mutex) Lock() { m.get().Lock() }

// Unlock releases m.
func (m *Mutex) Unlock() { m.get().Unlock() }

// TryLock attempts a non-blocking acquire; it reports false when the
// selected implementation does not support trylock.
func (m *Mutex) TryLock() bool {
	type tl interface{ TryLock() bool }
	if t, ok := m.get().(tl); ok {
		return t.TryLock()
	}
	return false
}

// resetForTesting clears the process-wide selection (tests only).
func resetForTesting() {
	implOnce = sync.Once{}
	implName, implErr, implNew = "", nil, nil
}
