package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/waiter"
)

// gElement is the wait element for the Gated and TwoLane variants
// (Appendices H and I): a single eos field serves as both the
// transfer-of-ownership flag and the channel conveying the
// end-of-segment address through the chain.
type gElement struct {
	eos atomic.Pointer[gElement]
	_   [pad.SectorSize - 8]byte
}

var gElementPool = sync.Pool{New: func() any { return new(gElement) }}

func getGElement() *gElement  { return gElementPool.Get().(*gElement) }
func putGElement(e *gElement) { gElementPool.Put(e) }

// GatedLock is the Appendix H "Gated" formulation: a concurrent
// pop-stack (the Tail word) plus a LeaderGate interlock that separates
// segment generations. The first thread to push onto an empty stack is
// the segment's leader; it waits (1-versus-1) for the previous
// generation to drain, takes the gate, runs, then detaches the stack
// it anchors and relays ownership down the detached chain. The thread
// that reaches the chain's logical end — the leader's buried element —
// reopens the gate for the next generation's leader.
//
// Admission is LIFO within a segment and FCFS between segments, so the
// lock retains population-bounded bypass, constant-time arrival and
// release, and single-phase waiting; the leader's spin on LeaderGate
// is private (at most one spinner) though not local.
//
// The zero value is an unlocked lock ready for use.
type GatedLock struct {
	tail atomic.Pointer[gElement]
	_    [pad.SectorSize - 8]byte

	// leaderGate: 0 = previous generation drained; 1 = a generation
	// is in flight. Only the incoming leader transitions 0→1 and only
	// the thread at a segment's end transitions 1→0.
	leaderGate atomic.Uint32
	_          [pad.SectorSize - 4]byte

	// Owner-owned context.
	isLeader bool
	prv, eos *gElement
	cur      *gElement

	// Clk is the injected time source for waiting (nil = wall clock).
	Clk Clock
}

// gToken carries the acquire context for the explicit API.
type gToken struct {
	leader   bool
	prv, eos *gElement
	elem     *gElement
}

// Acquire enters the lock with the supplied element.
func (l *GatedLock) Acquire(e *gElement) gToken {
	e.eos.Store(nil)
	prv := l.tail.Swap(e)
	if prv != nil {
		// Follower within a segment: wait for ownership plus the
		// end-of-segment address to arrive through our element.
		w := waiter.New(l.Clk)
		var eos *gElement
		for {
			eos = e.eos.Load()
			if eos != nil {
				break
			}
			w.Pause()
		}
		return gToken{leader: false, prv: prv, eos: eos, elem: e}
	}
	// Segment leader: wait for the previous generation to depart. At
	// most one thread waits here at a time (the stack was empty, and
	// it stays non-empty until this leader detaches it).
	w := waiter.New(l.Clk)
	for l.leaderGate.Load() != 0 {
		w.Pause()
	}
	l.leaderGate.Store(1)
	return gToken{leader: true, elem: e}
}

// Release exits the lock.
func (l *GatedLock) Release(t gToken) {
	if t.leader {
		// Detach the arrival segment we anchor. If followers have
		// accumulated, start relaying ownership down the chain,
		// conveying our (now buried) element as the logical
		// end-of-segment; otherwise reopen the gate.
		detached := l.tail.Swap(nil)
		if detached != t.elem {
			detached.eos.Store(t.elem)
		} else {
			l.leaderGate.Store(0)
		}
		return
	}
	if t.eos != t.prv {
		// Systolic propagation: enable prv and convey the terminus.
		t.prv.eos.Store(t.eos)
	} else {
		// We reached the leader's buried element: the segment is
		// exhausted; admit the next generation.
		l.leaderGate.Store(0)
	}
}

// Lock acquires l (sync.Locker).
func (l *GatedLock) Lock() {
	e := getGElement()
	t := l.Acquire(e)
	l.isLeader, l.prv, l.eos, l.cur = t.leader, t.prv, t.eos, t.elem
}

// Unlock releases l (sync.Locker).
func (l *GatedLock) Unlock() {
	t := gToken{leader: l.isLeader, prv: l.prv, eos: l.eos, elem: l.cur}
	l.isLeader, l.prv, l.eos, l.cur = false, nil, nil, nil
	l.Release(t)
	if t.elem != nil {
		putGElement(t.elem)
	}
}

// Locked reports whether the lock appeared held at the instant of the
// loads (diagnostic).
func (l *GatedLock) Locked() bool {
	return l.leaderGate.Load() != 0 || l.tail.Load() != nil
}
