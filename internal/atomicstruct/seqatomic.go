package atomicstruct

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/rwlock"
)

// SeqStripe is the optimistic-read variant of Stripe: the same
// address-hashed lock table, but each stripe lock is wrapped in a
// rwlock.Seqlock, so writers serialize through the underlying catalog
// lock (bumping the version stamp) while Load runs without writing any
// shared state at all. This is the repository's exemplar of the
// optimistic read path (rwlock.OptimisticLocker): the §7.2 workload with its read side lifted
// off the lock word entirely.
type SeqStripe struct {
	locks []*rwlock.Seqlock
}

// NewSeqStripe builds a stripe of n seqlocks, each over a fresh lock
// from mk. mk must return a TryLock-capable lock (every catalog entry
// qualifies); a lock without the doorway panics here, at construction.
// n rounds up to a power of two, like NewStripe.
func NewSeqStripe(n int, mk func() sync.Locker) *SeqStripe {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &SeqStripe{locks: make([]*rwlock.Seqlock, size)}
	for i := range s.locks {
		s.locks[i] = rwlock.NewSeqlock(mk(), nil)
	}
	return s
}

// forAddr selects the covering seqlock for an object address (same
// Fibonacci mixing as Stripe.forAddr).
func (s *SeqStripe) forAddr(p unsafe.Pointer) *rwlock.Seqlock {
	h := uintptr(p) * 0x9e3779b97f4a7c15
	return s.locks[(h>>48)&uintptr(len(s.locks)-1)]
}

// Retries sums the optimistic-read retries absorbed across the stripe
// (diagnostics; a read-mostly workload should keep this near zero).
func (s *SeqStripe) Retries() uint64 {
	var n uint64
	for _, l := range s.locks {
		n += l.Retries()
	}
	return n
}

// SeqAtomic is a seqlock-covered atomic value: Store, Exchange and
// CompareExchange acquire the covering lock exactly like Atomic, but
// Load is an optimistic read section — it copies the value word by
// word with atomic loads and validates the version stamp, retrying
// under the combinator's bounded policy on conflict. Readers therefore
// never write shared state, which is the entire throughput argument of
// the optimistic read path.
//
// T must be word-sized-compatible: pointer-free (a torn pointer
// assembled from halves of two generations would be unsafe to
// materialize) and a multiple of 4 bytes (the copy granularity). NewSeq
// checks both and panics otherwise.
type SeqAtomic[T comparable] struct {
	stripe *SeqStripe
	words  uintptr
	val    T
}

// NewSeq creates a seqlock-covered atomic value on the stripe.
func NewSeq[T comparable](stripe *SeqStripe) *SeqAtomic[T] {
	var zero T
	if err := seqCompatible(reflect.TypeOf(zero)); err != nil {
		panic(fmt.Sprintf("atomicstruct: NewSeq[%T]: %v", zero, err))
	}
	return &SeqAtomic[T]{stripe: stripe, words: unsafe.Sizeof(zero) / 4}
}

// seqCompatible reports why t cannot be read optimistically, nil when
// it can.
func seqCompatible(t reflect.Type) error {
	if t.Size()%4 != 0 {
		return fmt.Errorf("size %d is not a multiple of the 4-byte copy word", t.Size())
	}
	if hasPointers(t) {
		return fmt.Errorf("type contains pointers, which cannot be copied torn")
	}
	return nil
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Map, reflect.Slice, reflect.String:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	default:
		return false
	}
}

func (a *SeqAtomic[T]) lock() *rwlock.Seqlock {
	return a.stripe.forAddr(unsafe.Pointer(a))
}

// copyOut copies the value into dst with word-atomic loads. The copy
// may be torn; callers validate the stamp before trusting it (atomic
// granularity is what keeps a torn copy race-detector-clean and
// GC-safe rather than correct).
func (a *SeqAtomic[T]) copyOut(dst *T) {
	s := unsafe.Pointer(&a.val)
	d := unsafe.Pointer(dst)
	for i := uintptr(0); i < a.words; i++ {
		*(*uint32)(unsafe.Add(d, i*4)) = atomic.LoadUint32((*uint32)(unsafe.Add(s, i*4)))
	}
}

// copyIn installs *src with word-atomic stores; the caller holds the
// covering seqlock's write side.
func (a *SeqAtomic[T]) copyIn(src *T) {
	s := unsafe.Pointer(src)
	d := unsafe.Pointer(&a.val)
	for i := uintptr(0); i < a.words; i++ {
		atomic.StoreUint32((*uint32)(unsafe.Add(d, i*4)), *(*uint32)(unsafe.Add(s, i*4)))
	}
}

// Load returns the current value without acquiring anything: stamp,
// word-atomic copy, validate. The uncontended path is open-coded (no
// closure) so it stays allocation-free; conflicts fall into the
// combinator's packaged retry policy.
func (a *SeqAtomic[T]) Load() T {
	l := a.lock()
	var v T
	s := l.ReadBegin()
	if s&1 == 0 {
		a.copyOut(&v)
		if l.ReadValidate(s) {
			return v
		}
	}
	l.OptimisticRead(func() { a.copyOut(&v) })
	return v
}

// Store replaces the value under the covering seqlock's write side.
func (a *SeqAtomic[T]) Store(v T) {
	l := a.lock()
	l.Lock()
	a.copyIn(&v)
	l.Unlock()
}

// Exchange swaps in v and returns the prior value.
func (a *SeqAtomic[T]) Exchange(v T) T {
	l := a.lock()
	l.Lock()
	old := a.val
	a.copyIn(&v)
	l.Unlock()
	return old
}

// CompareExchange installs new if the current value equals old,
// returning the witnessed value and whether the exchange happened.
func (a *SeqAtomic[T]) CompareExchange(old, new T) (T, bool) {
	l := a.lock()
	l.Lock()
	cur := a.val
	if cur == old {
		a.copyIn(&new)
		l.Unlock()
		return cur, true
	}
	l.Unlock()
	return cur, false
}
