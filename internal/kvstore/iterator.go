package kvstore

import "bytes"

// source is a cursor over one sorted source: a memtable read at a
// snapshot stamp, or an immutable run. Sources yield entries including
// tombstones; the merger applies newest-wins and tombstone
// suppression. The current entry is cached so the merge heap compares
// keys without reaching back into the source.
type source struct {
	key, val []byte
	tomb     bool
	valid    bool // the cursor points at an entry

	run *Run // a run source; nil for a memtable source
	i   int  // run position

	// A memtable source walks mem's level-0 chain as it stood at stamp
	// snap: it skips nodes inserted later and reads each key's newest
	// record stamped at or before snap, so writes made after the
	// snapshot — to a frozen or to the live list — stay invisible. It
	// reads the buffer it loaded when last positioned, which it keeps
	// alive, so its keys and values stay valid after later growth.
	mem  *SkipList
	snap uint64
	a    arena
	n    uint32 // current node offset
}

// first positions the cursor at the source's first entry.
func (s *source) first() {
	if s.run != nil {
		s.at(0)
		return
	}
	s.a = s.mem.load()
	s.settle(next(s.a.p, 0).Load())
}

// seek positions the cursor at the first entry >= k.
func (s *source) seek(k []byte) {
	if s.run != nil {
		i, _ := s.run.search(k)
		s.at(i)
		return
	}
	s.a = s.mem.load()
	s.settle(s.a.seek(int(s.mem.height.Load()), k, nil))
}

// next advances the cursor and reports whether it points at an entry.
func (s *source) next() bool {
	if s.run != nil {
		s.at(s.i + 1)
	} else {
		s.settle(next(s.a.node(s.n), 0).Load())
	}
	return s.valid
}

// at moves a run cursor to index i.
func (s *source) at(i int) {
	s.i = i
	if s.valid = i < s.run.Len(); s.valid {
		s.key, s.val, s.tomb = s.run.key(i), s.run.val(i), s.run.tomb(i)
	}
}

// settle moves a memtable cursor to the first node from n on that has
// a record visible at the snapshot.
func (s *source) settle(n uint32) {
	for n != 0 {
		x := s.a.node(n)
		if r := s.a.visible(x, s.snap); r != 0 {
			s.key, s.val, s.tomb = nodeKey(x), s.a.value(r), s.a.meta(r)&1 != 0
			break
		}
		n = next(x, 0).Load()
	}
	s.n, s.valid = n, n != 0
}

// merger is the package's one k-way merge, shared by iterators and
// compaction: a binary min-heap of source indices ordered by (current
// key, source index). Sources are ordered newest first, so among equal
// keys the newest version is on top. next pays O(log S) key
// comparisons per entry over S sources; compaction steps the heap once
// per stretch instead (stretches, run.go).
type merger struct {
	src  []source
	heap []int32 // indices of the valid sources, in heap order
}

// first positions every source at its first entry and builds the heap.
func (m *merger) first() {
	for i := range m.src {
		m.src[i].first()
	}
	m.build()
}

// seek positions every source at its first entry >= k and builds the
// heap.
func (m *merger) seek(k []byte) {
	for i := range m.src {
		m.src[i].seek(k)
	}
	m.build()
}

func (m *merger) build() {
	m.heap = m.heap[:0]
	for i := range m.src {
		if m.src[i].valid {
			m.heap = append(m.heap, int32(i))
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// next returns the newest version of the smallest live key and moves
// every source past that key, skipping keys whose newest version is a
// tombstone. ok is false once the sources are exhausted. The returned
// slices alias the sources.
func (m *merger) next() (key, val []byte, ok bool) {
	for len(m.heap) > 0 {
		top := &m.src[m.heap[0]]
		key, val, tomb := top.key, top.val, top.tomb
		m.pass(key)
		if !tomb {
			return key, val, true
		}
	}
	return nil, nil, false
}

// pass moves every source past key, which the top source holds; older
// versions of key sit at the heap top in turn.
func (m *merger) pass(key []byte) {
	for {
		m.src[m.heap[0]].next()
		m.fixTop()
		if len(m.heap) == 0 || !bytes.Equal(m.src[m.heap[0]].key, key) {
			return
		}
	}
}

// fixTop restores heap order after the top source moved, dropping it
// from the heap once exhausted.
func (m *merger) fixTop() {
	if !m.src[m.heap[0]].valid {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
}

func (m *merger) less(a, b int32) bool {
	if c := bytes.Compare(m.src[a].key, m.src[b].key); c != 0 {
		return c < 0
	}
	return a < b
}

func (m *merger) down(i int) {
	h := m.heap
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && m.less(h[r], h[j]) {
			j = r
		}
		if !m.less(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Iterator yields the database's live entries in ascending key order
// over a consistent snapshot (the memtable at its last write stamp and
// the run set captured at creation, what a LevelDB iterator pins).
// Deleted keys are suppressed; among duplicate keys the newest source
// wins.
type Iterator struct {
	m       merger
	started bool
	k, v    []byte
}

// newIterator returns an iterator over src, ordered newest first, with
// the heap built lazily by the first Seek or Next.
func newIterator(src []source) *Iterator {
	return &Iterator{m: merger{src: src, heap: make([]int32, 0, len(src))}}
}

// snapshotLocked appends db's sources, newest first, to src, stamping
// the memtable source with its last write. The caller holds db's lock,
// on either side, so the snapshot sits between writes.
func (db *DB) snapshotLocked(src []source) []source {
	src = append(src, source{mem: db.mem, snap: db.mem.snapshot()})
	for _, r := range db.runs {
		src = append(src, source{run: r})
	}
	return src
}

// NewIterator captures a snapshot and positions the iterator before
// the first entry; call Next to advance. Like Get, the snapshot
// acquisition runs on the lock's read side.
func (db *DB) NewIterator() *Iterator {
	src := make([]source, 0, 1+db.opts.MaxRuns)
	db.readMu.Lock()
	src = db.snapshotLocked(src)
	db.readMu.Unlock()
	return newIterator(src)
}

// Seek positions the iterator so the following Next returns the first
// live entry with key >= k. It may move backwards.
func (it *Iterator) Seek(k []byte) {
	it.m.seek(k)
	it.started = true
}

// Next advances to the next live entry, reporting false at the end.
func (it *Iterator) Next() bool {
	if !it.started {
		it.m.first()
		it.started = true
	}
	k, v, ok := it.m.next()
	if ok {
		it.k, it.v = k, v
	}
	return ok
}

// Key returns the current entry's key (valid after a true Next). The
// slice aliases the store's immutable memory: it stays valid for the
// store's lifetime and must not be modified. It has cap == len, so an
// append copies.
func (it *Iterator) Key() []byte { return it.k }

// Value returns the current entry's value (valid after a true Next).
// Like Key, the slice aliases immutable store memory, must not be
// modified, and has cap == len.
func (it *Iterator) Value() []byte { return it.v }
