package kvstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/xrand"
)

// maxHeight bounds skiplist towers (LevelDB uses 12).
const maxHeight = 12

// The arena layout. Every entry starts on a 4-byte boundary, so each
// 32-bit word below can be viewed as an atomic.Uint32 in place.
//
//	node:   [newest-record offset u32][height<<24 | key length u32][height × u32 tower][key bytes]
//	record: [seq<<1 | tombstone u64][value length u32][older-record offset u32][value bytes]
//
// The head node sits at offset 0 with a full tower and an empty key,
// and nothing links to it, so offset 0 doubles as the nil link and
// the nil record.
const (
	nodeHdr   = 8
	recHdr    = 16
	headSize  = nodeHdr + 4*maxHeight
	maxKeyLen = 1<<24 - 1

	// firstArena is a fresh memtable's buffer size, unless its budget
	// is smaller.
	firstArena = 64 << 10
)

// nodeSize and recordSize return an entry's arena bytes, padded to the
// word alignment.
func nodeSize(h, klen int) int { return (nodeHdr + 4*h + klen + 3) &^ 3 }
func recordSize(vlen int) int  { return (recHdr + vlen + 3) &^ 3 }

// arena is a memtable buffer as a reader sees it: the address of its
// first byte. A reader follows only offsets the writer published, all
// inside the buffer it loaded, so the accessors read without bounds
// checks, and the search loops hold node addresses rather than offsets
// to spare an address computation per hop. Links and newest-record
// words are loaded atomically, since the writer stores them while
// readers run; every other word and byte is written before the link or
// record offset that publishes it.
type arena struct{ p unsafe.Pointer }

// node returns the address of the node at offset n.
func (a arena) node(n uint32) unsafe.Pointer { return unsafe.Add(a.p, n) }

// next is the word holding the successor at level lvl of the node at n.
func next(n unsafe.Pointer, lvl int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Add(n, nodeHdr+4*lvl))
}

// newest is the word holding the newest record of the node at n.
func newest(n unsafe.Pointer) *atomic.Uint32 { return (*atomic.Uint32)(n) }

// nodeKey returns the key of the node at n. The node's first record
// follows it, so even an empty key's slice points inside the buffer.
func nodeKey(n unsafe.Pointer) []byte {
	m := *(*uint32)(unsafe.Add(n, 4))
	return unsafe.Slice((*byte)(unsafe.Add(n, nodeHdr+4*int(m>>24))), m&maxKeyLen)
}

// meta returns record r's seq<<1 | tombstone word.
func (a arena) meta(r uint32) uint64 {
	return binary.NativeEndian.Uint64(unsafe.Slice((*byte)(unsafe.Add(a.p, r)), 8))
}

// value returns record r's value, nil when empty: an empty slice after
// the buffer's last record would point past its allocation.
func (a arena) value(r uint32) []byte {
	n := *(*uint32)(unsafe.Add(a.p, r+8))
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(a.p, r+recHdr)), n)
}

// older returns the record r replaced, 0 for a node's first.
func (a arena) older(r uint32) uint32 { return *(*uint32)(unsafe.Add(a.p, r+12)) }

// visible returns the newest record of the node at n stamped at or
// before snap, 0 when the node was inserted after snap.
func (a arena) visible(n unsafe.Pointer, snap uint64) uint32 {
	r := newest(n).Load()
	for r != 0 && a.meta(r)>>1 > snap {
		r = a.older(r)
	}
	return r
}

// seek returns the first node whose key is >= key, 0 at the end, from
// the list's top level down; preds, when not nil, receives the last
// node before it at every level up to the top.
func (a arena) seek(top int, key []byte, preds *[maxHeight]uint32) uint32 {
	x, xo := a.p, uint32(0)
	for lvl := top; lvl >= 0; lvl-- {
		for {
			nxt := next(x, lvl).Load()
			if nxt == 0 {
				break
			}
			n := a.node(nxt)
			if bytes.Compare(nodeKey(n), key) >= 0 {
				break
			}
			x, xo = n, nxt
		}
		if preds != nil {
			preds[lvl] = xo
		}
	}
	return next(x, 0).Load()
}

// SkipList is the memtable: an ordered map modeled on LevelDB's
// skiplist over an Arena, with exactly one writer at a time (the DB's
// central mutex serializes writers) while readers traverse
// concurrently with no locking at all — links are published bottom-up
// through atomic words, so a reader always sees a consistent, complete
// prefix of the structure.
//
// The list is one pointer-free byte buffer (the layout above): a node
// carries a tower only as tall as itself and its key in place, and a
// write appends a record, the value in place, chained to the record it
// replaces. The garbage collector sees one object, whatever the entry
// count. When the buffer is full the writer copies it into one twice
// as large, capped at the budget plus the entry that crosses it, and
// publishes that; a reader loads the buffer once per Get or Seek, and
// nothing writes a buffer's published bytes again, so a returned key
// or value stays valid as long as it is held.
//
// Every write is stamped with the next sequence number, and a snapshot
// (taken under the DB lock) records the last one, so an iterator reads
// the list as it stood at its snapshot: the newest record of each key
// stamped at or before it. Overwritten records stay in the buffer, and
// Bytes counts them, so the freeze threshold bounds them.
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
	base   atomic.Pointer[byte] // the published buffer's first byte
	filter bloom
	height atomic.Int32 // the top level in use

	// The writer's state, guarded by the DB lock.
	buf                       []byte // the published buffer
	used                      int    // bytes of buf in use
	budget                    int    // the freeze threshold, which caps growth
	rng                       xrand.XorShift64
	seq                       uint64 // last stamp written
	nodes, keyBytes, valBytes int
}

// NewSkipList creates an empty list sized for the default freeze
// budget.
func NewSkipList() *SkipList { return newSkipList(defaultMemTableBytes) }

// newSkipList creates an empty list for a freeze budget: a filter of
// one bit per memBytesPerBit bytes of it, and a buffer of firstArena
// bytes, or of the budget when that is smaller.
func newSkipList(budget int) *SkipList {
	s := &SkipList{
		filter: newBloom(budget / memBytesPerBit),
		budget: budget,
		rng:    *xrand.NewXorShift64(0x5ca1ab1e),
	}
	s.publish(make([]byte, max(headSize, min(firstArena, budget))))
	s.used = headSize
	return s
}

// publish makes buf the list's buffer.
func (s *SkipList) publish(buf []byte) {
	s.buf = buf
	s.base.Store(&buf[0])
}

// load returns the published buffer.
func (s *SkipList) load() arena { return arena{unsafe.Pointer(s.base.Load())} }

// alloc reserves n bytes at the end of the buffer and returns their
// offset. A buffer without room is copied into one twice as large.
// While the list is under budget, growth stops at the budget plus this
// entry, which leaves room for the entry that will cross the budget
// when entries are alike, so the freeze follows without another copy;
// past the budget (a batch writes on until its freeze) it doubles.
func (s *SkipList) alloc(n int) uint32 {
	if s.used+n > len(s.buf) {
		c := 2 * len(s.buf)
		for c < s.used+n {
			c *= 2
		}
		if s.used < s.budget && c >= s.budget {
			c = s.budget + n
		}
		if uint64(c) > math.MaxUint32 {
			panic("kvstore: memtable arena exceeds 4 GiB")
		}
		buf := make([]byte, c)
		copy(buf, s.buf[:s.used])
		s.publish(buf)
	}
	off := s.used
	s.used += n
	return uint32(off)
}

func (s *SkipList) randomHeight() int {
	h := 1
	// P = 1/4 branching, as in LevelDB.
	for h < maxHeight && s.rng.Uint64()&3 == 0 {
		h++
	}
	return h
}

// Put inserts or updates key. Single writer only (callers hold the
// DB mutex); readers may run concurrently. Key and value are copied
// into the list.
func (s *SkipList) Put(key, value []byte) { s.put(key, value, 0) }

// Delete records a tombstone for key.
func (s *SkipList) Delete(key []byte) { s.put(key, nil, 1) }

func (s *SkipList) put(key, val []byte, tomb uint64) {
	if len(key) > maxKeyLen || uint64(len(val)) > math.MaxUint32 {
		panic("kvstore: memtable key or value too long")
	}
	s.seq++
	var preds [maxHeight]uint32
	a := s.load()
	if n := a.seek(int(s.height.Load()), key, &preds); n != 0 && bytes.Equal(nodeKey(a.node(n)), key) {
		old := newest(a.node(n)).Load()
		s.valBytes += len(val) - len(a.value(old))
		r := s.alloc(recordSize(len(val)))
		s.writeRecord(r, val, tomb, old)
		newest(s.load().node(n)).Store(r)
		return
	}
	h := s.randomHeight()
	ns := nodeSize(h, len(key))
	n := s.alloc(ns + recordSize(len(val)))
	s.writeRecord(n+uint32(ns), val, tomb, 0)
	a = s.load()
	b := s.buf[n:]
	binary.NativeEndian.PutUint32(b, n+uint32(ns))
	binary.NativeEndian.PutUint32(b[4:], uint32(h)<<24|uint32(len(key)))
	for lvl := 0; lvl < h; lvl++ {
		binary.NativeEndian.PutUint32(b[nodeHdr+4*lvl:], next(a.node(preds[lvl]), lvl).Load())
	}
	copy(b[nodeHdr+4*h:], key)
	s.filter.addShared(newProbe(key))
	if int32(h-1) > s.height.Load() {
		s.height.Store(int32(h - 1))
	}
	// Publish bottom-up so concurrent readers never see a node at a
	// high level that is missing below. A level above the old top
	// links from the head, preds' zero value.
	for lvl := 0; lvl < h; lvl++ {
		next(a.node(preds[lvl]), lvl).Store(n)
	}
	s.nodes++
	s.keyBytes += len(key)
	s.valBytes += len(val)
}

// writeRecord fills the record at r, which no reader can reach yet.
func (s *SkipList) writeRecord(r uint32, val []byte, tomb uint64, older uint32) {
	b := s.buf[r:]
	binary.NativeEndian.PutUint64(b, s.seq<<1|tomb)
	binary.NativeEndian.PutUint32(b[8:], uint32(len(val)))
	binary.NativeEndian.PutUint32(b[12:], older)
	copy(b[recHdr:], val)
}

// Get returns the value for key; found distinguishes "present" from
// "absent", and tomb reports a tombstone (Run.Get's order too).
// Lock-free: safe concurrently with one writer. The value aliases the
// list's buffer, capped.
func (s *SkipList) Get(key []byte) (val []byte, found, tomb bool) {
	a := s.load()
	x, above := a.p, uint32(0) // above: a node known to sort after key
	for lvl := int(s.height.Load()); lvl >= 0; lvl-- {
		for {
			nxt := next(x, lvl).Load()
			if nxt == 0 || nxt == above {
				break
			}
			n := a.node(nxt)
			c := bytes.Compare(nodeKey(n), key)
			if c > 0 {
				above = nxt
				break
			}
			if c == 0 {
				r := newest(n).Load()
				return a.value(r), true, a.meta(r)&1 != 0
			}
			x = n
		}
	}
	return nil, false, false
}

// snapshot returns the stamp of the list's last write, the snapshot a
// reader holding the DB lock, on either side, may read at.
func (s *SkipList) snapshot() uint64 { return s.seq }

// Len reports the number of distinct keys. Requires the DB lock or
// quiescence, like Bytes.
func (s *SkipList) Len() int { return s.nodes }

// Bytes reports the arena bytes in use, overwritten records and
// tombstones included, the freeze trigger; the head node counts too.
func (s *SkipList) Bytes() int { return s.used }

// bounds returns the first and last keys, nil when the list is empty.
// Requires quiescence or an immutable (frozen) list.
func (s *SkipList) bounds() (first, last []byte) {
	a := s.load()
	x := a.p
	for lvl := int(s.height.Load()); lvl >= 0; lvl-- {
		for nxt := next(x, lvl).Load(); nxt != 0; nxt = next(x, lvl).Load() {
			x = a.node(nxt)
		}
	}
	if x == a.p {
		return nil, nil
	}
	return nodeKey(a.node(next(a.p, 0).Load())), nodeKey(x)
}

// Ascend visits all entries in key order (including tombstones), each
// at its newest version. Requires quiescence or an immutable (frozen)
// list.
func (s *SkipList) Ascend(fn func(key, value []byte, tombstone bool) bool) {
	a := s.load()
	for n := next(a.p, 0).Load(); n != 0; {
		x := a.node(n)
		r := newest(x).Load()
		if !fn(nodeKey(x), a.value(r), a.meta(r)&1 != 0) {
			return
		}
		n = next(x, 0).Load()
	}
}
