package kvstore

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Run is an immutable sorted run — the in-memory stand-in for an
// SSTable: a frozen memtable or the product of merging older runs.
// Immutability makes concurrent reads trivially safe.
//
// Like an SSTable block, a run is pointer-free: keys sit back to back
// in one byte arena and values in another, each addressed by an offset
// array, with a tombstone flag per entry beside them. A run is the same
// handful of heap objects whatever its entry count, and the garbage
// collector never scans its contents.
//
// Binary search runs over index, one machine word per entry: the 8 key
// bytes after the run's common prefix (the longest common prefix of
// the first and last key, so of every key), big-endian and zero
// padded. Zero padding keeps word order consistent with key order (a
// smaller word means a smaller key), so a probe touches the key arena
// only to check the common prefix and for entries whose word ties its
// own.
//
// Each run carries a Bloom filter of its keys at runBitsPerKey bits
// per key, tombstones included, so a Get skips a run that cannot hold
// its key without searching it; the filter is complete before the run
// is published.
type Run struct {
	keys   []byte   // key arena; key i is keys[koff[i]:koff[i+1]]
	koff   []uint32 // len(index)+1 offsets into keys
	vals   []byte   // value arena; value i is vals[voff[i]:voff[i+1]]
	voff   []uint32 // len(index)+1 offsets into vals
	tombs  []bool   // tombs[i] marks entry i a deletion tombstone
	index  []uint64 // search words, one per entry
	plen   int      // common prefix length; the prefix is keys[:plen]
	filter bloom    // every key, tombstones included
}

// runBuilder makes a run from a counting pass over its entries: their
// number, arena sizes and first and last keys, so every slice is made
// once at its exact final size.
type runBuilder struct {
	n, keyBytes, valBytes int
	first, last           []byte
}

// count records one entry of the counting pass.
func (b *runBuilder) count(k, v []byte) {
	if b.n == 0 {
		b.first = k
	}
	b.last = k
	b.n++
	b.keyBytes += len(k)
	b.valBytes += len(v)
}

// alloc makes the run sized by the counting pass. Offsets are 32-bit,
// so an arena past 4 GiB is refused rather than left to wrap.
func (b *runBuilder) alloc(tombs bool) *Run {
	if uint64(b.keyBytes) > math.MaxUint32 || uint64(b.valBytes) > math.MaxUint32 {
		panic("kvstore: sorted run arena exceeds 4 GiB")
	}
	r := &Run{
		keys:  make([]byte, 0, b.keyBytes),
		koff:  make([]uint32, 1, b.n+1),
		vals:  make([]byte, 0, b.valBytes),
		voff:  make([]uint32, 1, b.n+1),
		index: make([]uint64, 0, b.n),
		plen:  commonPrefix(b.first, b.last),
	}
	if tombs {
		r.tombs = make([]bool, 0, b.n)
	}
	return r
}

// add appends the next entry, in ascending key order.
func (r *Run) add(k, v []byte) {
	r.index = append(r.index, word(k[r.plen:]))
	r.keys = append(r.keys, k...)
	r.koff = append(r.koff, uint32(len(r.keys)))
	r.vals = append(r.vals, v...)
	r.voff = append(r.voff, uint32(len(r.vals)))
}

// buildRun freezes a memtable into a sorted run.
func buildRun(sl *SkipList) *Run {
	var b runBuilder
	sl.Ascend(func(k, v []byte, _ bool) bool {
		b.count(k, v)
		return true
	})
	r := b.alloc(true)
	sl.Ascend(func(k, v []byte, tomb bool) bool {
		r.add(k, v)
		r.tombs = append(r.tombs, tomb)
		return true
	})
	r.fillFilter()
	return r
}

// mergeRuns merges runs (ordered newest first) into one, applying
// newest-wins semantics and dropping tombstones (a full merge is the
// bottom level, so tombstones have nothing left to shadow). A first
// heap merge counts the survivors and their bytes, so the merged run
// holds no spare capacity; a second one fills it.
func mergeRuns(runs []*Run) *Run {
	m := merger{src: make([]source, len(runs)), heap: make([]int32, 0, len(runs))}
	for i, r := range runs {
		m.src[i].run = r
	}
	var b runBuilder
	m.first()
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		b.count(k, v)
	}
	out := b.alloc(false)
	m.first()
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		out.add(k, v)
	}
	out.fillFilter()
	return out
}

// fillFilter builds the run's filter from its key arena, in a pass of
// its own after the entries are in place: a tight loop overlaps the
// filter's cache misses, where an add per entry would stall on each
// one between two merge steps.
func (r *Run) fillFilter() {
	r.filter = newBloom(len(r.index) * runBitsPerKey)
	for i := range r.index {
		r.filter.add(newProbe(r.key(i)))
	}
}

// commonPrefix returns the length of the longest common prefix of a
// and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// word packs the first 8 bytes of s big-endian, zero padded.
func word(s []byte) uint64 {
	if len(s) >= 8 {
		return binary.BigEndian.Uint64(s)
	}
	var w uint64
	for _, c := range s {
		w = w<<8 | uint64(c)
	}
	return w << (64 - 8*len(s))
}

// key returns entry i's key, capacity-capped.
func (r *Run) key(i int) []byte {
	a, b := r.koff[i], r.koff[i+1]
	return r.keys[a:b:b]
}

// val returns entry i's value, capacity-capped so an append by a
// caller copies instead of overwriting the next value.
func (r *Run) val(i int) []byte {
	a, b := r.voff[i], r.voff[i+1]
	return r.vals[a:b:b]
}

// tomb reports whether entry i is a tombstone. Merged runs keep none.
func (r *Run) tomb(i int) bool { return r.tombs != nil && r.tombs[i] }

// search returns the index of the first key >= k, and whether that
// entry's index word ties k's, the only case in which its key can
// equal k.
func (r *Run) search(k []byte) (int, bool) {
	n := len(r.index)
	if n == 0 {
		return 0, false
	}
	// Every key starts with the common prefix, so a probe without it
	// sorts before or after all of them.
	if p := r.keys[:r.plen]; !bytes.HasPrefix(k, p) {
		if bytes.Compare(k, p) < 0 {
			return 0, false
		}
		return n, false
	}
	rest := k[r.plen:]
	w := word(rest)
	lo, hi := 0, n
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if x := r.index[h]; x < w || x == w && bytes.Compare(r.key(h)[r.plen:], rest) < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < n && r.index[lo] == w
}

// Get binary-searches the run. found reports an entry for key, and
// tomb that the entry is a tombstone; val aliases the run, capped.
func (r *Run) Get(key []byte) (val []byte, found, tomb bool) {
	if i, tie := r.search(key); tie && bytes.Equal(r.key(i), key) {
		return r.val(i), true, r.tomb(i)
	}
	return nil, false, false
}

// Len reports the number of entries (including tombstones).
func (r *Run) Len() int { return len(r.index) }
