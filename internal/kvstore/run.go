package kvstore

import (
	"bytes"
	"sort"
)

// Run is an immutable sorted run — the in-memory stand-in for an
// SSTable: a frozen memtable or the product of merging older runs.
// Immutability makes concurrent reads trivially safe.
type Run struct {
	keys  [][]byte
	vals  [][]byte
	tombs []bool
}

// buildRun freezes a memtable into a sorted run.
func buildRun(sl *SkipList) *Run {
	r := &Run{
		keys:  make([][]byte, 0, sl.Len()),
		vals:  make([][]byte, 0, sl.Len()),
		tombs: make([]bool, 0, sl.Len()),
	}
	sl.Ascend(func(k, v []byte, tomb bool) bool {
		r.keys = append(r.keys, k)
		r.vals = append(r.vals, v)
		r.tombs = append(r.tombs, tomb)
		return true
	})
	return r
}

// search returns the index of the first key >= k.
func (r *Run) search(k []byte) int {
	return sort.Search(len(r.keys), func(i int) bool {
		return bytes.Compare(r.keys[i], k) >= 0
	})
}

// Get binary-searches the run.
func (r *Run) Get(key []byte) (val []byte, tombstone, found bool) {
	if i := r.search(key); i < len(r.keys) && bytes.Equal(r.keys[i], key) {
		return r.vals[i], r.tombs[i], true
	}
	return nil, false, false
}

// Len reports the number of entries (including tombstones).
func (r *Run) Len() int { return len(r.keys) }

// mergeRuns merges runs (ordered newest first) into one, applying
// newest-wins semantics and dropping tombstones (a full merge is the
// bottom level, so tombstones have nothing left to shadow). A counting
// pass sizes the result, so the merged run holds no spare capacity.
func mergeRuns(runs []*Run) *Run {
	m := merger{src: make([]source, len(runs)), heap: make([]int32, 0, len(runs))}
	for i, r := range runs {
		m.src[i].run = r
	}
	n := 0
	m.first()
	for _, _, ok := m.next(); ok; _, _, ok = m.next() {
		n++
	}
	out := &Run{keys: make([][]byte, 0, n), vals: make([][]byte, 0, n), tombs: make([]bool, n)}
	m.first()
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		out.keys = append(out.keys, k)
		out.vals = append(out.vals, v)
	}
	return out
}
