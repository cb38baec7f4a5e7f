package lockstat

import (
	"sync"
	"testing"

	"repro/internal/rwlock"
)

func TestInstrumentedReadPathCounters(t *testing.T) {
	s := New()
	i := Wrap(rwlock.NewRW(&sync.Mutex{}, nil), s).(rwlock.RWLocker)

	for n := 0; n < 3; n++ {
		i.RLock()
		i.RUnlock()
	}
	snap := s.Snapshot()
	if snap.RLocks != 3 {
		t.Fatalf("RLocks = %d, want 3", snap.RLocks)
	}
	if snap.ReadAcq.Count() != 3 {
		t.Fatalf("read-acquire histogram count = %d, want 3", snap.ReadAcq.Count())
	}
	if snap.Acquisitions != 0 {
		t.Fatalf("RLock leaked into exclusive acquisitions (%d)", snap.Acquisitions)
	}
}

func TestInstrumentedOptimisticCounters(t *testing.T) {
	s := New()
	i := Wrap(rwlock.NewSeqlock(&sync.Mutex{}, nil), s).(rwlock.OptimisticLocker)

	i.OptimisticRead(func() {})
	snap := s.Snapshot()
	if snap.OptReads != 1 || snap.OptRetries != 0 {
		t.Fatalf("quiescent OptimisticRead: reads=%d retries=%d, want 1/0", snap.OptReads, snap.OptRetries)
	}
	if snap.ReadAcq.Count() != 1 {
		t.Fatalf("read-acquire histogram count = %d, want 1", snap.ReadAcq.Count())
	}

	// A failed manual validation counts one optimistic retry.
	stamp := i.ReadBegin()
	i.Lock()
	if i.ReadValidate(stamp) {
		t.Fatal("validated across a held writer")
	}
	i.Unlock()
	if got := s.Snapshot().OptRetries; got != 1 {
		t.Fatalf("OptRetries = %d after failed validation, want 1", got)
	}
}

// An inner lock with no read path gets no read surface from the
// decorator: its readers fall back to the exclusive Lock, recorded as
// exclusive acquisitions, never as read acquisitions.
func TestInstrumentedReadFallbackIsExclusive(t *testing.T) {
	s := New()
	i := Wrap(&sync.Mutex{}, s)
	if _, ok := i.(rwlock.RWLocker); ok {
		t.Fatal("decorator of a plain mutex offers RLock")
	}
	if _, ok := i.(rwlock.OptimisticLocker); ok {
		t.Fatal("decorator of a plain mutex offers an optimistic read path")
	}
	i.Lock()
	i.Unlock()
	snap := s.Snapshot()
	if snap.RLocks != 0 || snap.OptReads != 0 {
		t.Fatalf("exclusive section recorded as a read: rlocks=%d optReads=%d", snap.RLocks, snap.OptReads)
	}
	if snap.Acquisitions != 1 {
		t.Fatalf("recorded %d exclusive acquisitions, want 1", snap.Acquisitions)
	}
}

func TestInstrumentedNilStatsReadPath(t *testing.T) {
	i := Wrap(rwlock.NewSeqlock(&sync.Mutex{}, nil), nil).(rwlock.OptimisticLocker)
	var x uint64
	f := func() { x++ }
	if n := testing.AllocsPerRun(2000, func() {
		i.OptimisticRead(f)
	}); n != 0 {
		t.Fatalf("nil-Stats OptimisticRead allocates %.1f/op, want 0", n)
	}
}
