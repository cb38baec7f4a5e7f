package kvstore

import "bytes"

// iterSource is a cursor over one sorted source (memtable or run).
// Sources yield entries including tombstones; the merging iterator
// applies newest-wins and tombstone suppression.
type iterSource interface {
	// valid reports whether the cursor points at an entry.
	valid() bool
	// key/value/tombstone describe the current entry.
	key() []byte
	value() []byte
	tombstone() bool
	// next advances the cursor.
	next()
	// seek positions the cursor at the first entry >= k.
	seek(k []byte)
}

// slIter walks a skiplist's level-0 chain as it stood at snapshot
// stamp snap: it skips nodes inserted later and reads each key's
// newest version stamped at or before snap, so writes made after the
// snapshot — to a frozen or to the live list — stay invisible.
type slIter struct {
	sl   *SkipList
	snap uint64
	n    *slNode
	box  *valueBox // n's version visible at snap
}

// newSlIter pins sl and positions a cursor at its first entry. The
// caller holds the DB lock, so the snapshot sits between writes.
func newSlIter(sl *SkipList) *slIter {
	it := &slIter{sl: sl, snap: sl.snapshot()}
	it.settle(sl.head.next[0].Load())
	return it
}

// settle moves the cursor to the first node from n on that has a
// version visible at the snapshot.
func (it *slIter) settle(n *slNode) {
	for ; n != nil; n = n.next[0].Load() {
		if it.box = n.visible(it.snap); it.box != nil {
			break
		}
	}
	it.n = n
}

func (it *slIter) valid() bool     { return it.n != nil }
func (it *slIter) key() []byte     { return it.n.key }
func (it *slIter) value() []byte   { return it.box.data }
func (it *slIter) tombstone() bool { return it.box.tombstone() }
func (it *slIter) next()           { it.settle(it.n.next[0].Load()) }
func (it *slIter) seek(k []byte) {
	var preds [maxHeight]*slNode
	it.settle(it.sl.findPredecessors(k, &preds))
}

// runIter walks an immutable sorted run.
type runIter struct {
	r   *Run
	idx int
}

func (it *runIter) valid() bool     { return it.idx < it.r.Len() }
func (it *runIter) key() []byte     { return it.r.keys[it.idx] }
func (it *runIter) value() []byte   { return it.r.vals[it.idx] }
func (it *runIter) tombstone() bool { return it.r.tombs[it.idx] }
func (it *runIter) next()           { it.idx++ }
func (it *runIter) seek(k []byte) {
	lo, hi := 0, it.r.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(it.r.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.idx = lo
}

// Iterator yields the database's live entries in ascending key order
// over a consistent snapshot (the memtable at its last write stamp and
// the run set captured at creation, what a LevelDB iterator pins). Deleted keys are
// suppressed; among duplicate keys the newest source wins.
type Iterator struct {
	sources []iterSource // ordered newest first
	k, v    []byte
	ok      bool
}

// NewIterator captures a snapshot and positions the iterator before
// the first entry; call Next to advance. Like Get, the snapshot
// acquisition runs on the lock's shared-read surface when the lock
// admits concurrent readers.
func (db *DB) NewIterator() *Iterator {
	var mem *slIter
	var runs []*Run
	if db.rmu != nil {
		db.rmu.RLock()
		mem, runs = newSlIter(db.mem), db.runs
		db.rmu.RUnlock()
	} else {
		db.mu.Lock()
		mem, runs = newSlIter(db.mem), db.runs
		db.mu.Unlock()
	}

	it := &Iterator{sources: []iterSource{mem}}
	for _, r := range runs {
		it.sources = append(it.sources, &runIter{r: r})
	}
	return it
}

// Seek positions the iterator so the following Next returns the first
// live entry with key >= k.
func (it *Iterator) Seek(k []byte) {
	for _, s := range it.sources {
		s.seek(k)
	}
}

// Next advances to the next live entry, reporting false at the end.
func (it *Iterator) Next() bool {
	for {
		// Smallest current key across sources; ties resolve to the
		// newest (earliest) source.
		var best iterSource
		for _, s := range it.sources {
			if !s.valid() {
				continue
			}
			if best == nil || bytes.Compare(s.key(), best.key()) < 0 {
				best = s
			}
		}
		if best == nil {
			it.ok = false
			return false
		}
		k := append([]byte(nil), best.key()...)
		v := append([]byte(nil), best.value()...)
		tomb := best.tombstone()
		// Skip this key in every source (shadowed older versions).
		for _, s := range it.sources {
			for s.valid() && bytes.Equal(s.key(), k) {
				s.next()
			}
		}
		if tomb {
			continue
		}
		it.k, it.v, it.ok = k, v, true
		return true
	}
}

// Key returns the current entry's key (valid after a true Next).
func (it *Iterator) Key() []byte { return it.k }

// Value returns the current entry's value (valid after a true Next).
func (it *Iterator) Value() []byte { return it.v }
