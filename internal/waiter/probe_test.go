package waiter

import (
	"testing"
	"time"
)

// The probe must fire exactly once, at the first transition of any
// kind, and keep forwarding every transition to its inner sink.
func TestArrivalProbeFiresOnceAndForwards(t *testing.T) {
	rec := &recordingSink{}
	p := NewArrivalProbe(rec)
	if p.Fired() {
		t.Fatal("fresh probe already fired")
	}
	select {
	case <-p.Published():
		t.Fatal("fresh probe's channel already closed")
	default:
	}

	w := Waiter{sink: p}
	w.Pause()
	if !p.Fired() {
		t.Fatal("first Pause did not fire the probe")
	}
	select {
	case <-p.Published():
	default:
		t.Fatal("Published channel not closed after first transition")
	}
	// Later transitions of every kind must forward without re-closing.
	p.CountYield()
	p.CountPark()
	p.CountSpin()
	if got := string(rec.events); got != "syps" {
		t.Fatalf("inner sink saw %q, want \"syps\"", got)
	}
}

// A probe with no inner sink must absorb transitions without panicking.
func TestArrivalProbeNilInner(t *testing.T) {
	p := NewArrivalProbe(nil)
	p.CountSpin()
	p.CountYield()
	p.CountPark()
	if !p.Fired() {
		t.Fatal("probe did not fire")
	}
}

// The conformance driver's installation pattern: SetSink(probe) before
// the arriving goroutine starts, so the goroutine's first Pause — after
// it has published its arrival to the lock — fires the probe.
func TestArrivalProbeGlobalPickup(t *testing.T) {
	p := NewArrivalProbe(nil)
	SetSink(p)
	defer SetSink(nil)
	done := make(chan struct{})
	go func() {
		w := New(nil)
		w.Pause()
		close(done)
	}()
	select {
	case <-p.Published():
	case <-time.After(5 * time.Second):
		t.Fatal("probe never fired through the global sink")
	}
	<-done
}
