package kvstore

import (
	"bytes"
	"sync/atomic"

	"repro/internal/xrand"
)

// maxHeight bounds skiplist towers (LevelDB uses 12).
const maxHeight = 12

// valueBox carries a value or a deletion tombstone, stamped with the
// list's write sequence number; boxes are immutable once published, so
// readers can load them without locks. The stamp and the tombstone
// flag share one word (seq<<1 | tombstone) to keep a box at 32 bytes.
type valueBox struct {
	data []byte
	meta uint64
}

func (b *valueBox) seq() uint64     { return b.meta >> 1 }
func (b *valueBox) tombstone() bool { return b.meta&1 != 0 }

// oldVersion keeps an overwritten box that an open snapshot may still
// read; versions link newest first.
type oldVersion struct {
	box  *valueBox
	prev *oldVersion
}

type slNode struct {
	key  []byte
	val  atomic.Pointer[valueBox]
	old  atomic.Pointer[oldVersion]
	next [maxHeight]atomic.Pointer[slNode]
}

// visible returns the newest version of n stamped at or before snap,
// or nil when n was inserted after snap.
func (n *slNode) visible(snap uint64) *valueBox {
	if b := n.val.Load(); b.seq() <= snap {
		return b
	}
	// Overwrite pushes the retained box before publishing its
	// successor, so a reader that saw the successor sees the push.
	for o := n.old.Load(); o != nil; o = o.prev {
		if o.box.seq() <= snap {
			return o.box
		}
	}
	return nil
}

// SkipList is an insert-only ordered map modeled on LevelDB's
// memtable skiplist: exactly one writer at a time (the DB's central
// mutex serializes writers) while readers traverse concurrently with
// no locking at all — links are published bottom-up through atomic
// pointers, so a reader always sees a consistent, complete prefix of
// the structure.
//
// Every write is stamped with the next sequence number, and a snapshot
// (taken under the DB lock) records the last one, so an iterator reads
// the list as it stood at its snapshot. An overwritten value is kept
// only when a snapshot was taken after it was written, and a kept
// value counts towards Bytes, so the freeze threshold bounds them.
//
// A Bloom filter sized from the freeze budget holds every key ever
// inserted, tombstones included. The writer sets a key's bits before
// linking its node, so a Get that skips the list on the filter's word
// skips only keys no reader could have reached.
//
// The writer also keeps the exact sizes a frozen run needs, the key
// bytes of the distinct keys and the value bytes of their newest
// versions, so a freeze allocates the run without a counting pass.
type SkipList struct {
	head   slNode // the sentinel before the first node, allocated with the list
	filter bloom
	height atomic.Int32
	nodes  atomic.Int64
	bytes  atomic.Int64
	rng    *xrand.XorShift64
	seq    uint64        // last stamp written; guarded by the DB lock
	pinned atomic.Uint64 // highest stamp any snapshot has read

	// Guarded by the DB lock, like seq.
	keyBytes, valBytes int
}

// NewSkipList creates an empty list with a filter sized for the
// default freeze budget.
func NewSkipList() *SkipList { return newSkipList(defaultMemTableBytes) }

// newSkipList creates an empty list with a filter of one bit per
// memBytesPerBit bytes of budget, the freeze threshold.
func newSkipList(budget int) *SkipList {
	return &SkipList{
		filter: newBloom(budget / memBytesPerBit),
		rng:    xrand.NewXorShift64(0x5ca1ab1e),
	}
}

func (s *SkipList) randomHeight() int {
	h := 1
	// P = 1/4 branching, as in LevelDB.
	for h < maxHeight && s.rng.Uint64()&3 == 0 {
		h++
	}
	return h
}

// findPredecessors fills preds with the rightmost node before key at
// every level and returns the candidate node (which may equal key).
func (s *SkipList) findPredecessors(key []byte, preds *[maxHeight]*slNode) *slNode {
	x := &s.head
	for lvl := int(s.height.Load()); lvl >= 0; lvl-- {
		if lvl >= maxHeight {
			continue
		}
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || bytes.Compare(nxt.key, key) >= 0 {
				break
			}
			x = nxt
		}
		preds[lvl] = x
	}
	return x.next[0].Load()
}

// Put inserts or updates key. Single writer only (callers hold the
// DB mutex); readers may run concurrently.
func (s *SkipList) Put(key, value []byte) {
	s.put(key, clone(value), 0)
}

// clone copies b at exact capacity, so an append to a slice handed out
// later reallocates instead of writing past the copy.
func clone(b []byte) []byte {
	c := append([]byte(nil), b...)
	return c[:len(c):len(c)]
}

// Delete records a tombstone for key.
func (s *SkipList) Delete(key []byte) {
	s.put(key, nil, 1)
}

func (s *SkipList) put(key, data []byte, tomb uint64) {
	s.seq++
	box := &valueBox{data: data, meta: s.seq<<1 | tomb}
	var preds [maxHeight]*slNode
	cand := s.findPredecessors(key, &preds)
	if cand != nil && bytes.Equal(cand.key, key) {
		old := cand.val.Load()
		if old.seq() <= s.pinned.Load() {
			cand.old.Store(&oldVersion{box: old, prev: cand.old.Load()})
			s.bytes.Add(int64(len(box.data)) + 32)
		} else {
			s.bytes.Add(int64(len(box.data)) - int64(len(old.data)))
		}
		s.valBytes += len(box.data) - len(old.data)
		cand.val.Store(box)
		return
	}
	h := s.randomHeight()
	n := &slNode{key: clone(key)}
	n.val.Store(box)
	s.filter.addShared(newProbe(key))
	if int32(h-1) > s.height.Load() {
		s.height.Store(int32(h - 1))
	}
	for lvl := 0; lvl < h; lvl++ {
		pred := preds[lvl]
		if pred == nil {
			pred = &s.head
		}
		n.next[lvl].Store(pred.next[lvl].Load())
	}
	// Publish bottom-up so concurrent readers never see a node at a
	// high level that is missing below.
	for lvl := 0; lvl < h; lvl++ {
		pred := preds[lvl]
		if pred == nil {
			pred = &s.head
		}
		pred.next[lvl].Store(n)
	}
	s.nodes.Add(1)
	s.bytes.Add(int64(len(key) + len(box.data) + 32))
	s.keyBytes += len(key)
	s.valBytes += len(box.data)
}

// Get returns the value for key; found distinguishes "present" from
// "absent", and tomb reports a tombstone (Run.Get's order too).
// Lock-free: safe concurrently with one writer.
func (s *SkipList) Get(key []byte) (val []byte, found, tomb bool) {
	x := &s.head
	for lvl := int(s.height.Load()); lvl >= 0; lvl-- {
		if lvl >= maxHeight {
			continue
		}
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil {
				break
			}
			c := bytes.Compare(nxt.key, key)
			if c > 0 {
				break
			}
			if c == 0 {
				box := nxt.val.Load()
				return box.data, true, box.tombstone()
			}
			x = nxt
		}
	}
	return nil, false, false
}

// snapshot pins the list at its last write and returns that stamp.
// Callers hold the DB lock, shared or exclusive; concurrent shared
// holders store the same stamp.
func (s *SkipList) snapshot() uint64 {
	s.pinned.Store(s.seq)
	return s.seq
}

// Len reports the number of distinct keys.
func (s *SkipList) Len() int { return int(s.nodes.Load()) }

// Bytes reports the approximate memory footprint, the freeze trigger.
func (s *SkipList) Bytes() int { return int(s.bytes.Load()) }

// bounds returns the first and last keys, nil when the list is empty.
// Requires quiescence or an immutable (frozen) list.
func (s *SkipList) bounds() (first, last []byte) {
	x := &s.head
	for lvl := int(s.height.Load()); lvl >= 0; lvl-- {
		for nxt := x.next[lvl].Load(); nxt != nil; nxt = x.next[lvl].Load() {
			x = nxt
		}
	}
	if x == &s.head {
		return nil, nil
	}
	return s.head.next[0].Load().key, x.key
}

// Ascend visits all entries in key order (including tombstones).
// Requires quiescence or an immutable (frozen) list.
func (s *SkipList) Ascend(fn func(key, value []byte, tombstone bool) bool) {
	for n := s.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		box := n.val.Load()
		if !fn(n.key, box.data, box.tombstone()) {
			return
		}
	}
}
