package rwlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestRWConcurrentReadersAdmitted(t *testing.T) {
	l := NewRW(&sync.Mutex{}, nil)
	const readers = 4
	var inside atomic.Int64
	var peak atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	var done sync.WaitGroup
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			l.RLock()
			n := inside.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			release.Wait()
			inside.Add(-1)
			l.RUnlock()
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for inside.Load() != readers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d readers admitted concurrently", inside.Load(), readers)
		}
		time.Sleep(time.Millisecond)
	}
	release.Done()
	done.Wait()
	if peak.Load() != readers {
		t.Fatalf("peak concurrent readers = %d, want %d", peak.Load(), readers)
	}
	if l.Readers() != 0 {
		t.Fatalf("reader count %d after all released", l.Readers())
	}
}

func TestRWWriterExcludesReaders(t *testing.T) {
	l := NewRW(&sync.Mutex{}, nil)
	var x, y atomic.Uint64
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.RLock()
				a, b := x.Load(), y.Load()
				if a != b {
					torn.Add(1)
				}
				l.RUnlock()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		l.Lock()
		x.Add(1)
		y.Add(1)
		l.Unlock()
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("readers observed %d torn states under writer exclusion", n)
	}
}

func TestRWWriterDrainsActiveReader(t *testing.T) {
	l := NewRW(&sync.Mutex{}, nil)
	l.RLock()
	acquired := make(chan struct{})
	go func() {
		l.Lock()
		close(acquired)
		l.Unlock()
	}()
	select {
	case <-acquired:
		t.Fatal("writer acquired while a reader was active")
	case <-time.After(20 * time.Millisecond):
	}
	l.RUnlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired after reader drained")
	}
}

func TestRWTryLock(t *testing.T) {
	l := NewRW(&sync.Mutex{}, nil)
	if !l.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	l.Unlock()
	l.RLock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded with an active reader")
	}
	l.RUnlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed after reader released")
	}
	l.Unlock()
}

func TestRWRUnlockWithoutRLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RUnlock of unheld RW did not panic")
		}
	}()
	NewRW(&sync.Mutex{}, nil).RUnlock()
}

func TestRequireTryPanicsOnPlainLocker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRW over a TryLock-less base did not panic")
		}
	}()
	// A Locker with no TryLock doorway.
	type bare struct{ sync.Locker }
	NewRW(bare{&sync.Mutex{}}, nil)
}

func TestSeqlockStampParity(t *testing.T) {
	l := NewSeqlock(&sync.Mutex{}, nil)
	if s := l.ReadBegin(); s != 0 || !l.ReadValidate(s) {
		t.Fatalf("fresh seqlock stamp %d should validate", s)
	}
	l.Lock()
	s := l.ReadBegin()
	if s&1 == 0 {
		t.Fatalf("stamp %d even inside write section", s)
	}
	if l.ReadValidate(s) {
		t.Fatal("odd begin stamp validated")
	}
	l.Unlock()
	s = l.ReadBegin()
	if s&1 != 0 || !l.ReadValidate(s) {
		t.Fatalf("stamp %d after unlock should be even and valid", s)
	}
}

func TestSeqlockReadValidateDetectsWriter(t *testing.T) {
	l := NewSeqlock(&sync.Mutex{}, nil)
	s := l.ReadBegin()
	l.Lock()
	l.Unlock()
	if l.ReadValidate(s) {
		t.Fatal("stale stamp validated across a write section")
	}
}

func TestSeqlockOptimisticReadNeverTorn(t *testing.T) {
	l := NewSeqlock(&sync.Mutex{}, nil)
	var x, y atomic.Uint64
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var a, b uint64
				l.OptimisticRead(func() {
					a, b = x.Load(), y.Load()
				})
				if a != b {
					torn.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		l.Lock()
		x.Add(1)
		y.Add(1)
		l.Unlock()
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d validated optimistic reads observed torn state", n)
	}
}

func TestOCCFallbackTerminatesUnderPersistentConflict(t *testing.T) {
	// Hold the stamp odd forever: every optimistic attempt must fail,
	// so OptimisticRead must exhaust its budget — optHotRetries hot
	// pauses, then one recorded sleep per further attempt — and take
	// the wrapped lock, which this test hands over once the fallback
	// blocks on it.
	base := &signalLocker{}
	rc := &recordingClock{Clock: clock.Wall}
	l := NewOCC(base, rc)
	l.Lock() // stamp now odd, wrapped lock held
	base.locking = make(chan struct{}, 1)
	ran := make(chan struct{})
	go func() {
		l.OptimisticRead(func() {})
		close(ran)
	}()
	select {
	case <-base.locking:
	case <-time.After(10 * time.Second):
		t.Fatal("OCC read never fell back to the wrapped lock under persistent conflict")
	}
	if got, want := len(rc.recorded()), occMaxAttempts-1-optHotRetries; got != want {
		t.Fatalf("fallback after %d retry sleeps, want the full budget's %d", got, want)
	}
	l.Unlock()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("OCC fallback read never completed after writer released")
	}
}

// signalLocker is a mutex whose Lock, once locking is set, sends on it
// before blocking, so a test sees a reader reach the wrapped lock.
type signalLocker struct {
	sync.Mutex
	locking chan struct{}
}

func (l *signalLocker) Lock() {
	if l.locking != nil {
		l.locking <- struct{}{}
	}
	l.Mutex.Lock()
}

// recordingClock wraps the wall clock but records (and elides) every
// Sleep — the injection point the combinators' escalated retry path
// sleeps through.
type recordingClock struct {
	clock.Clock
	mu     sync.Mutex
	delays []time.Duration
}

func (c *recordingClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
}

func (c *recordingClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.delays...)
}

func TestOptimisticRetrySleepsDrawFromBackoffFloor(t *testing.T) {
	// Inject a recording clock and force a conflict storm long enough
	// to escalate past the hot retries; every recorded delay must obey
	// the decorrelated-jitter floor and cap.
	rc := &recordingClock{Clock: clock.Wall}

	l := NewSeqlock(&sync.Mutex{}, rc)
	l.seq.Store(1) // permanently odd: every attempt conflicts
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			if len(rc.recorded()) >= 5 {
				l.seq.Store(2) // go even: next attempt validates
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	l.OptimisticRead(func() {})
	<-done

	delays := rc.recorded()
	if len(delays) == 0 {
		t.Fatal("conflict storm never escalated to the backoff floor")
	}
	if delays[0] != readRetryPolicy.Base {
		t.Fatalf("first escalated delay %v, want exactly the floor %v", delays[0], readRetryPolicy.Base)
	}
	for i, d := range delays {
		if d < readRetryPolicy.Base || d > readRetryPolicy.Cap {
			t.Fatalf("delay[%d] = %v outside [%v, %v]", i, d, readRetryPolicy.Base, readRetryPolicy.Cap)
		}
	}
}

func TestSeqlockOptimisticReadFastPathAllocFree(t *testing.T) {
	l := NewSeqlock(&sync.Mutex{}, nil)
	var x atomic.Uint64
	var sink uint64
	read := func() { sink = x.Load() }
	if n := testing.AllocsPerRun(2000, func() {
		l.OptimisticRead(read)
	}); n != 0 {
		t.Fatalf("seqlock optimistic read fast path allocates %.1f/op, want 0", n)
	}
	_ = sink
}

// Interface conformance pins: the combinators must satisfy the
// read-path contracts they are registered under.
var (
	_ RWLocker         = (*RW)(nil)
	_ OptimisticLocker = (*Seqlock)(nil)
	_ RWLocker         = (*sync.RWMutex)(nil)
)
