package registry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/lockstat"
	"repro/internal/rwlock"
)

func TestBuildBare(t *testing.T) {
	l, err := Build("Recipro")
	if err != nil {
		t.Fatal(err)
	}
	if _, bare := l.(*core.Lock); !bare {
		t.Fatalf("bare Build must return the base lock, got %T", l)
	}
	l.Lock()
	l.Unlock()

	if _, err := Build("bogus"); err == nil {
		t.Fatal("Build of unknown name succeeded")
	}
}

func TestBuildWithBounded(t *testing.T) {
	// Natively bounded: the lock itself satisfies the contract.
	l, err := Build("MCS", WithBounded())
	if err != nil {
		t.Fatal(err)
	}
	if _, bare := l.(*locks.MCSLock); !bare {
		t.Fatalf("WithBounded on a natively bounded lock must return it undecorated, got %T", l)
	}
	b := l.(bounded.Locker)
	if !b.LockFor(10 * time.Millisecond) {
		t.Fatal("LockFor failed on unheld lock")
	}
	b.Unlock()

	// TryLock-only: the decorator must poll its TryLock.
	l, err = Build("TWA", WithBounded())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(bounded.Locker); !ok {
		t.Fatal("polling-tier entry did not gain bounded.Locker")
	}

	// No doorway at all: Build must fail, not hand back a lock that
	// cannot honor the request.
	for _, name := range []string{"Gated", "TwoLane"} {
		if _, err := Build(name, WithBounded()); err == nil {
			t.Errorf("Build(%s, WithBounded()) succeeded for an unboundable lock", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("error should name the entry: %v", err)
		}
	}
}

func TestBuildWithStats(t *testing.T) {
	st := lockstat.New()
	l, err := Build("TKT", WithStats(st))
	if err != nil {
		t.Fatal(err)
	}
	l.Lock()
	l.Unlock()
	if snap := st.Snapshot(); snap.Acquisitions != 1 || snap.Unlocks != 1 {
		t.Fatalf("telemetry not recorded: %+v", snap)
	}
	if _, ok := l.(bounded.Locker); !ok {
		t.Fatal("instrumented TKT lost its native bounded acquisition")
	}

	// Telemetry must be outermost: with bounded too, the polled
	// acquisitions and the abandoned wait are recorded.
	st = lockstat.New()
	l, err = Build("TWA", WithStats(st), WithBounded())
	if err != nil {
		t.Fatal(err)
	}
	b := l.(bounded.Locker)
	if !b.LockFor(time.Millisecond) {
		t.Fatal("LockFor failed on a free lock")
	}
	if b.LockFor(time.Millisecond) {
		t.Fatal("LockFor succeeded on a held lock")
	}
	b.Unlock()
	if snap := st.Snapshot(); snap.Acquisitions != 1 || snap.Abandons != 1 {
		t.Fatalf("bounded telemetry not recorded: %+v", snap)
	}
}

// The veto must neither gain nor lose capability tier.
func TestVetoPreservesTier(t *testing.T) {
	// Native tier stays native.
	l, err := Build("MCS", WithChaosVeto("test.veto.mcs"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(bounded.Locker); !ok {
		t.Fatal("veto demoted a natively bounded lock")
	}

	// TryLock tier stays TryLock (and does not become bounded).
	l, err = Build("TWA", WithChaosVeto("test.veto.twa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(bounded.TryLocker); !ok {
		t.Fatal("veto lost the TryLock doorway")
	}
	if _, ok := l.(bounded.Locker); ok {
		t.Fatal("veto promoted a TryLock-only lock to bounded.Locker")
	}

	// No doorway: nothing to veto, lock passes through untouched.
	e, _ := Lookup("Gated")
	l, err = e.Build(WithChaosVeto("test.veto.gated"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(bounded.TryLocker); ok {
		t.Fatal("veto invented a TryLock doorway")
	}
}

// With chaos disarmed the veto is transparent; with TryFail forced to
// certainty every TryLock, native LockFor, polled bounded acquisition
// and ReadValidate is vetoed, while Lock, native LockCtx, RLock and
// OptimisticRead are untouched.
func TestVetoUnderChaos(t *testing.T) {
	build := func(name string, opts ...Option) sync.Locker {
		t.Helper()
		l, err := Build(name, append(opts, WithChaosVeto("test.veto."+name))...)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	b := build("Recipro").(bounded.Locker)
	polled := build("TWA", WithBounded()).(bounded.Locker)
	seq := build("seq:Recipro").(rwlock.OptimisticLocker)
	rw := build("rw:Recipro", WithBounded(), WithStats(nil))

	if !b.TryLock() {
		t.Fatal("disarmed veto blocked TryLock")
	}
	b.Unlock()
	if s := seq.ReadBegin(); !seq.ReadValidate(s) {
		t.Fatal("disarmed veto failed a quiescent ReadValidate")
	}

	chaos.Enable(chaos.Config{Seed: 7, TryFail: 1})
	defer chaos.Disable()

	if b.TryLock() {
		t.Fatal("TryLock succeeded under a certain veto")
	}
	if b.LockFor(time.Millisecond) {
		t.Fatal("LockFor succeeded under a certain veto")
	}
	// A veto is failure-only: blocking acquisition still works, and a
	// native LockCtx is never vetoed.
	b.Lock()
	b.Unlock()
	if err := b.LockCtx(context.Background()); err != nil {
		t.Fatalf("native LockCtx vetoed: %v", err)
	}
	b.Unlock()

	// Polling retries the vetoed TryLock, so it never gets in.
	if polled.LockFor(2 * time.Millisecond) {
		t.Fatal("polled LockFor succeeded under a certain veto")
	}
	polled.Lock()
	polled.Unlock()

	// A fresh stamp fails validation; the packaged read still runs.
	if s := seq.ReadBegin(); seq.ReadValidate(s) {
		t.Fatal("ReadValidate succeeded under a certain veto")
	}
	ran := false
	seq.OptimisticRead(func() { ran = true })
	if !ran {
		t.Fatal("OptimisticRead never ran its section under the veto")
	}

	// The shared read path and blocking writes are untouched; the
	// polled LockCtx expires on its context like the polled LockFor.
	r := rw.(rwlock.RWLocker)
	r.RLock()
	r.RUnlock()
	rw.Lock()
	rw.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if err := rw.(bounded.Locker).LockCtx(ctx); err == nil {
		t.Fatal("polled LockCtx succeeded under a certain veto")
	}
}

func TestFactory(t *testing.T) {
	e, _ := Lookup("CLH")
	fac, err := e.Factory()
	if err != nil {
		t.Fatal(err)
	}
	a, b := fac(), fac()
	if a == b {
		t.Fatal("Factory returned a shared instance")
	}
	a.Lock()
	// Distinct instances: b must be acquirable while a is held.
	done := make(chan struct{})
	go func() {
		b.Lock()
		b.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("factory instances share state")
	}
	a.Unlock()

	// Invalid pipelines fail at Factory time, not per construction.
	g, _ := Lookup("Gated")
	if _, err := g.Factory(WithBounded()); err == nil {
		t.Fatal("Factory validated an impossible pipeline")
	}
}

// Repeated builds with the same veto point must share one chaos
// point — the injection stream is per-name, not per-instance.
func TestVetoPointInterning(t *testing.T) {
	const name = "test.veto.interned"
	a := vetoPoint(name)
	b := vetoPoint(name)
	if a != b {
		t.Fatal("veto points not interned")
	}
}

// The pipeline built concurrently must be race-free (exercised under
// make race).
func TestBuildConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := Build("Recipro", WithStats(nil), WithChaosVeto(""), WithBounded())
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}
