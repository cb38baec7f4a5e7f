package lockstat

import (
	"expvar"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/waiter"
)

func TestHistBucketPlacement(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{-5, 0}, // clock anomaly clamps low
		{0, 0},
		{1, 1}, // [1,2)
		{2, 2}, // [2,4)
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1 << 38, HistBuckets - 1},
		{1 << 62, HistBuckets - 1}, // clamps high
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.ns)
		s := h.Snapshot()
		if s.Buckets[c.bucket] != 1 {
			got := -1
			for i, b := range s.Buckets {
				if b == 1 {
					got = i
				}
			}
			t.Errorf("Observe(%d): bucket %d, want %d", c.ns, got, c.bucket)
		}
	}
}

func TestHistBucketBoundsTile(t *testing.T) {
	// Buckets must tile [0, 2^(HistBuckets-1)) without gap or overlap.
	var prevHi time.Duration
	for i := 0; i < HistBuckets; i++ {
		lo, hi := BucketBounds(i)
		if i > 0 && lo != prevHi {
			t.Fatalf("bucket %d: lo %v != previous hi %v", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%v,%v)", i, lo, hi)
		}
		prevHi = hi
	}
	// Placement must agree with the declared bounds at every boundary.
	for i := 1; i < HistBuckets-1; i++ {
		lo, hi := BucketBounds(i)
		for _, ns := range []int64{int64(lo), int64(hi) - 1} {
			b := bits.Len64(uint64(ns))
			if b != i {
				t.Fatalf("ns=%d maps to bucket %d, bounds say %d", ns, b, i)
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}

	var h Hist
	h.Observe(100) // bucket 7: [64,128)
	s := h.Snapshot()
	lo, hi := BucketBounds(7)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(q)
		if got < lo || got >= hi {
			t.Errorf("single-sample Quantile(%v) = %v, want within [%v,%v)", q, got, lo, hi)
		}
	}

	// 90 fast + 10 slow observations: p50 must sit in the fast bucket,
	// p99 in the slow bucket.
	var h2 Hist
	for i := 0; i < 90; i++ {
		h2.Observe(100) // bucket 7
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1 << 20) // bucket 21
	}
	s2 := h2.Snapshot()
	if got := s2.Quantile(0.50); got >= hi {
		t.Errorf("p50 = %v, want fast bucket", got)
	}
	slowLo, _ := BucketBounds(21)
	if got := s2.Quantile(0.99); got < slowLo {
		t.Errorf("p99 = %v, want slow bucket ≥ %v", got, slowLo)
	}
	if s2.Count() != 100 {
		t.Errorf("Count = %d, want 100", s2.Count())
	}
}

func TestStatsImplementsWaiterSink(t *testing.T) {
	var _ waiter.Sink = New()
	s := New()
	s.CountSpin()
	s.CountSpin()
	s.CountYield()
	s.CountPark()
	snap := s.Snapshot()
	if snap.Spins != 2 || snap.Yields != 1 || snap.Parks != 1 {
		t.Errorf("sink counts = %d/%d/%d, want 2/1/1", snap.Spins, snap.Yields, snap.Parks)
	}
}

func TestInstrumentedNilStatsPassThrough(t *testing.T) {
	base := new(core.Lock)
	l := Wrap(base, nil).(bounded.Locker)
	l.Lock()
	if !base.Locked() {
		t.Fatal("inner lock not held after Lock")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	l.Unlock()
	if !l.LockFor(time.Millisecond) {
		t.Fatal("LockFor failed on free lock")
	}
	l.Unlock()
}

func TestInstrumentedCountsUncontended(t *testing.T) {
	s := New()
	l := Wrap(new(core.Lock), s)
	const n = 100
	for i := 0; i < n; i++ {
		l.Lock()
		l.Unlock()
	}
	snap := s.Snapshot()
	if snap.Acquisitions != n || snap.Unlocks != n {
		t.Fatalf("acq/unlock = %d/%d, want %d/%d", snap.Acquisitions, snap.Unlocks, n, n)
	}
	if snap.Acquire.Count() != n || snap.Hold.Count() != n {
		t.Fatalf("hist counts = %d/%d, want %d", snap.Acquire.Count(), snap.Hold.Count(), n)
	}
	if snap.Handovers != 0 {
		t.Errorf("handovers = %d on single-goroutine run, want 0", snap.Handovers)
	}
}

func TestInstrumentedDetectsContention(t *testing.T) {
	s := New()
	d := newDecorated(new(core.Lock), nil, nil, false, s)
	l := d.expose()
	// Force a contended acquisition deterministically: hold the lock
	// while a second goroutine attempts to acquire.
	l.Lock()
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(entered)
		l.Lock()
		l.Unlock()
		close(done)
	}()
	<-entered
	// Wait until the second goroutine is observably queued.
	for d.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	l.Unlock()
	<-done
	snap := s.Snapshot()
	if snap.Contended == 0 {
		t.Error("no contended acquisition recorded")
	}
	if snap.Handovers == 0 {
		t.Error("no handover recorded for release-to-waiter")
	}
	if snap.Contended > snap.Acquisitions {
		t.Errorf("contended %d > acquisitions %d", snap.Contended, snap.Acquisitions)
	}
}

func TestInstrumentedTryLock(t *testing.T) {
	s := New()
	l := Wrap(new(core.Lock), s).(bounded.TryLocker)
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	snap := s.Snapshot()
	if snap.Acquisitions != 1 || snap.Unlocks != 1 || snap.TryFails != 1 {
		t.Fatalf("acq/unlock/tryfail = %d/%d/%d, want 1/1/1",
			snap.Acquisitions, snap.Unlocks, snap.TryFails)
	}
	if snap.Acquire.Count() != snap.Acquisitions {
		t.Fatalf("acquire hist %d != acquisitions %d", snap.Acquire.Count(), snap.Acquisitions)
	}

	// A lock without TryLock: the decorator must not offer one.
	if _, ok := Wrap(minimalLocker{new(sync.Mutex)}, New()).(bounded.TryLocker); ok {
		t.Fatal("decorator invented a TryLock for a lock without one")
	}
}

// minimalLocker hides sync.Mutex's TryLock.
type minimalLocker struct{ mu *sync.Mutex }

func (m minimalLocker) Lock()   { m.mu.Lock() }
func (m minimalLocker) Unlock() { m.mu.Unlock() }

func TestInstallWaiterSinkRestores(t *testing.T) {
	if waiter.ActiveSink() != nil {
		t.Fatal("pre-existing global sink")
	}
	s := New()
	restore := InstallWaiterSink(s)
	if waiter.ActiveSink() != waiter.Sink(s) {
		t.Fatal("sink not installed")
	}
	restore()
	if waiter.ActiveSink() != nil {
		t.Fatal("sink not restored to nil")
	}
	// Nil install is an uninstall.
	waiter.SetSink(s)
	restore = InstallWaiterSink(nil)
	if waiter.ActiveSink() != nil {
		t.Fatal("nil install did not clear sink")
	}
	restore()
	if waiter.ActiveSink() != waiter.Sink(s) {
		t.Fatal("restore did not reinstate previous sink")
	}
	waiter.SetSink(nil)
}

func TestPublishIdempotent(t *testing.T) {
	s := New()
	s.RecordAcquire(false, time.Microsecond)
	Publish("lockstat.test", s)
	Publish("lockstat.test", s) // must not panic
	v := expvar.Get("lockstat.test")
	if v == nil {
		t.Fatal("var not published")
	}
	if js := v.String(); !strings.Contains(js, "\"acquisitions\":1") {
		t.Errorf("published JSON missing acquisitions: %s", js)
	}
}

func TestBuildTableAndReport(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.RecordAcquire(i%2 == 0, 100*time.Nanosecond)
		s.RecordRelease(false, 50*time.Nanosecond)
	}
	snaps := map[string]Snapshot{"Recipro": s.Snapshot()}
	tab := BuildTable("telemetry", []string{"Recipro", "missing"}, snaps)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (missing names skipped)", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "Recipro") || !strings.Contains(out, "Contended") {
		t.Errorf("table rendering missing content:\n%s", out)
	}

	var sb strings.Builder
	FprintReport(&sb, "telemetry", []string{"Recipro"}, snaps, false)
	if !strings.Contains(sb.String(), "acquire latency") {
		t.Errorf("text report missing histogram section:\n%s", sb.String())
	}
	sb.Reset()
	FprintReport(&sb, "telemetry", []string{"Recipro"}, snaps, true)
	if strings.Contains(sb.String(), "==") || !strings.Contains(sb.String(), "Lock,") {
		t.Errorf("csv report malformed:\n%s", sb.String())
	}
}
