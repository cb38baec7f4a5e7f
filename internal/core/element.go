package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/pad"
)

// WaitElement is the per-worker waiting element for the pointer-Gate
// variants (Lock, FairLock). A worker waits on at most one lock at a
// time, so a single element per worker suffices regardless of how many
// locks the worker holds (§2, §5 "plural locking").
//
// Gate doubles as the wakeup flag and the channel through which the
// end-of-segment address propagates toward the tail of the entry
// segment: nil means "keep waiting"; any other value grants ownership
// and identifies the segment terminus.
type WaitElement struct {
	gate     atomic.Pointer[WaitElement]
	deferred atomic.Pointer[WaitElement] // used only by FairLock
	_        [pad.SectorSize - 16]byte
}

// lockedEmptySentinel is the Go rendering of the paper's LOCKEDEMPTY
// encoding (the tagged value 1): a distinguished, never-dereferenced
// element address meaning "locked, arrival segment empty". A single
// process-wide sentinel serves every lock instance, as the constant 1
// does in C++.
var lockedEmptySentinel WaitElement

// elementPool recycles wait elements for the convenience Lock/Unlock
// API. Elements re-enter the pool only at Unlock time — never at the
// end of Acquire — which preserves the TLS-singleton lifecycle rule
// the algorithm's zombie end-of-segment reasoning depends on (see the
// package comment).
var elementPool = sync.Pool{New: func() any { return new(WaitElement) }}

func getElement() *WaitElement  { return elementPool.Get().(*WaitElement) }
func putElement(e *WaitElement) { elementPool.Put(e) }

// flagElement is the element type for variants whose Gate is a plain
// flag (SimplifiedLock, RelayLock, CombinedLock): Listings 2, 3, 5, 6
// use std::atomic<int> Gate. The eos field exists for the variants
// that convey the terminus through the element (Listings 5 and 6) and
// is ignored by the others.
type flagElement struct {
	gate atomic.Uint32
	_    [pad.CacheLineSize - 4]byte
	eos  atomic.Pointer[flagElement]
	_    [pad.CacheLineSize - 8]byte
}

// flagLockedEmpty mirrors lockedEmptySentinel for flagElement-based
// variants.
var flagLockedEmptySentinel flagElement

var flagElementPool = sync.Pool{New: func() any { return new(flagElement) }}

func getFlagElement() *flagElement { return flagElementPool.Get().(*flagElement) }
func putFlagElement(e *flagElement) {
	flagElementPool.Put(e)
}
