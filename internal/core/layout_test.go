package core

import (
	"testing"
	"unsafe"

	"repro/internal/pad"
)

// The paper sequesters waiting elements at 128-byte boundaries (§7).
// Element types must each occupy whole sectors so that pool-allocated
// neighbors never false-share.
func TestWaitElementSectorLayout(t *testing.T) {
	if got := unsafe.Sizeof(WaitElement{}); got != pad.SectorSize {
		t.Errorf("WaitElement size = %d, want %d", got, pad.SectorSize)
	}
	if got := unsafe.Sizeof(flagElement{}); got%pad.CacheLineSize != 0 {
		t.Errorf("flagElement size = %d, want line multiple", got)
	}
	if got := unsafe.Sizeof(gElement{}); got != pad.SectorSize {
		t.Errorf("gElement size = %d, want %d", got, pad.SectorSize)
	}
	if got := unsafe.Sizeof(taggedElement{}); got%pad.CacheLineSize != 0 {
		t.Errorf("taggedElement size = %d, want line multiple", got)
	}
}

// The flag element's gate and eos live on different cache lines, per
// the sequestration the Listing 2/5/6 variants assume.
func TestFlagElementFieldSeparation(t *testing.T) {
	var e flagElement
	gate := uintptr(unsafe.Pointer(&e.gate))
	eos := uintptr(unsafe.Pointer(&e.eos))
	if eos-gate < pad.CacheLineSize {
		t.Errorf("gate/eos separated by %d bytes, want >= %d", eos-gate, pad.CacheLineSize)
	}
}

// The core lock bodies stay compact: the arrival word plus owner
// context. The paper's Table 1 charges Reciprocating S=2 words; our
// Lock carries the arrival word plus three context words, a clock and
// a flag — 56 bytes, under one cache line.
func TestLockBodyCompact(t *testing.T) {
	if got := unsafe.Sizeof(Lock{}); got > pad.CacheLineSize {
		t.Errorf("Lock body = %d bytes, want <= one line", got)
	}
	if got := unsafe.Sizeof(FetchAddLock{}); got > 3*pad.SectorSize {
		t.Errorf("FetchAddLock body = %d bytes", got)
	}
}
