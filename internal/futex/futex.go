// Package futex provides address-based waiting — a user-space analog of
// the Linux futex(2) primitive discussed in §8 of the paper as the
// substrate for "polite" waiting policies.
//
// Wait(addr, val) blocks the caller while *addr still contains val at
// registration time; Wake(addr, n) releases up to n waiters queued on
// addr. As with the kernel primitive, spurious wakeups are permitted
// and callers must re-check their predicate in a loop; the chaos layer
// (internal/chaos) exercises that obligation by injecting them.
//
// The implementation hashes the address into a fixed set of shards,
// each holding a FIFO of per-waiter channels keyed by address. The
// "compare under the shard lock" step provides the atomicity that makes
// the classic publish-then-wake pattern race-free:
//
//	waiter:              waker:
//	  w := load(addr)      store(addr, new)
//	  ...                  futex.Wake(addr, 1)
//	  futex.Wait(addr, w)
//
// If the store lands before the waiter registers, the value check fails
// and Wait returns immediately; if it lands after, the waker's Wake
// serializes behind the registration on the shard lock and finds the
// waiter queued.
package futex

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/clock"
)

// chWait and chWaitTimeout inject spurious wakeups into Wait and
// WaitTimeoutClock (kernel futexes are allowed to return spuriously;
// this implementation otherwise never does, so the injection keeps
// callers honest about re-checking their predicate).
var (
	chWait        = chaos.NewPoint("futex.wait")
	chWaitTimeout = chaos.NewPoint("futex.waittimeout")
)

const shardCount = 64 // power of two

type waiterNode struct {
	ch   chan struct{}
	next *waiterNode
}

type queue struct {
	head, tail *waiterNode
	n          int
}

func (q *queue) push(w *waiterNode) {
	if q.tail == nil {
		q.head, q.tail = w, w
	} else {
		q.tail.next = w
		q.tail = w
	}
	q.n++
}

func (q *queue) pop() *waiterNode {
	w := q.head
	if w == nil {
		return nil
	}
	q.head = w.next
	if q.head == nil {
		q.tail = nil
	}
	w.next = nil
	q.n--
	return w
}

// remove unlinks w if it is still queued and reports whether it was.
func (q *queue) remove(w *waiterNode) bool {
	var prev *waiterNode
	for cur := q.head; cur != nil; cur = cur.next {
		if cur == w {
			if prev == nil {
				q.head = cur.next
			} else {
				prev.next = cur.next
			}
			if q.tail == cur {
				q.tail = prev
			}
			w.next = nil
			q.n--
			return true
		}
		prev = cur
	}
	return false
}

type shard struct {
	mu sync.Mutex
	m  map[uintptr]*queue
	_  [40]byte // keep shards off each other's cache lines
}

var shards [shardCount]shard

func init() {
	for i := range shards {
		shards[i].m = make(map[uintptr]*queue)
	}
}

func shardFor(key uintptr) *shard {
	// Fibonacci hashing spreads nearby addresses across shards.
	h := uint64(key) * 0x9e3779b97f4a7c15
	return &shards[(h>>58)&(shardCount-1)]
}

// Wait blocks the caller until a Wake on addr, provided *addr == val at
// registration time. It returns immediately if the value has already
// changed. Spurious returns do not occur from this implementation
// except under chaos fault injection, but callers must loop,
// futex-style, regardless.
func Wait(addr *atomic.Uint32, val uint32) {
	if chWait.Wake() {
		return
	}
	key := uintptr(unsafe.Pointer(addr))
	s := shardFor(key)
	s.mu.Lock()
	if addr.Load() != val {
		s.mu.Unlock()
		return
	}
	q := s.m[key]
	if q == nil {
		q = &queue{}
		s.m[key] = q
	}
	w := &waiterNode{ch: make(chan struct{})}
	q.push(w)
	s.mu.Unlock()
	<-w.ch
}

// WaitTimeoutClock is Wait with a timeout measured on c (nil selects
// clock.Wall); it reports false on timeout. Clocked locks park through
// it so a virtual clock can expire their waits deterministically. Like
// Wait, it may return true spuriously under chaos fault injection.
func WaitTimeoutClock(addr *atomic.Uint32, val uint32, d time.Duration, c clock.Clock) bool {
	if chWaitTimeout.Wake() {
		return true
	}
	key := uintptr(unsafe.Pointer(addr))
	s := shardFor(key)
	s.mu.Lock()
	if addr.Load() != val {
		s.mu.Unlock()
		return true
	}
	q := s.m[key]
	if q == nil {
		q = &queue{}
		s.m[key] = q
	}
	w := &waiterNode{ch: make(chan struct{})}
	q.push(w)
	s.mu.Unlock()

	// ParkFor parks on the clock's timer racing the wake channel;
	// d <= 0 would park unboundedly, so treat it as already expired.
	if d > 0 && !clock.Or(c).ParkFor(d, w.ch) {
		return true
	}
	// Timed out. Race: a waker may pop us between the timeout firing
	// and the removal below; in that case report success.
	s.mu.Lock()
	removed := false
	if q2 := s.m[key]; q2 != nil {
		removed = q2.remove(w)
		if q2.n == 0 {
			delete(s.m, key)
		}
	}
	s.mu.Unlock()
	if !removed {
		<-w.ch // wake already committed to us
		return true
	}
	return false
}

// Wake releases up to n waiters queued on addr and returns the number
// released. n <= 0 releases none.
func Wake(addr *atomic.Uint32, n int) int {
	key := uintptr(unsafe.Pointer(addr))
	s := shardFor(key)
	s.mu.Lock()
	q := s.m[key]
	woke := 0
	for woke < n && q != nil {
		w := q.pop()
		if w == nil {
			break
		}
		close(w.ch)
		woke++
	}
	if q != nil && q.n == 0 {
		delete(s.m, key)
	}
	s.mu.Unlock()
	return woke
}

// Waiters reports how many waiters are currently queued on addr.
// Intended for tests and diagnostics.
func Waiters(addr *atomic.Uint32) int {
	key := uintptr(unsafe.Pointer(addr))
	s := shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.m[key]; q != nil {
		return q.n
	}
	return 0
}
