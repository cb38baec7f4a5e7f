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
// Search runs over index, one machine word per entry: the 8 key bytes
// after the run's common prefix (the longest common prefix of the
// first and last key, so of every key), big-endian and zero padded.
// Zero padding keeps word order consistent with key order (a smaller
// word means a smaller key), so a probe touches the key arena only to
// check the common prefix and for entries whose word ties its own.
//
// A fence over the index holds the word of every fenceStride-th (8th)
// entry: one word per 64-byte index line, 1/8 of the index, small
// enough to stay in L2 where the index does not. A search
// binary-searches the fence for the blocks of fenceStride entries that
// can hold its answer, and bisects the index only inside them: one
// index line unless the probe's word ties a fence word.
//
// Each run carries a Bloom filter of its keys at runBitsPerKey bits
// per key, tombstones included, so a Get skips a run that cannot hold
// its key without searching it. The filter and the fence are complete
// before the run is published.
type Run struct {
	keys   []byte   // key arena; key i is keys[koff[i]:koff[i+1]]
	koff   []uint32 // len(index)+1 offsets into keys
	vals   []byte   // value arena; value i is vals[voff[i]:voff[i+1]]
	voff   []uint32 // len(index)+1 offsets into vals
	tombs  []bool   // tombs[i] marks entry i a deletion tombstone
	index  []uint64 // search words, one per entry
	fence  []uint64 // fence[a] is index[a*fenceStride]
	plen   int      // common prefix length; the prefix is keys[:plen]
	filter bloom    // every key, tombstones included
}

// fenceStride is the number of index entries per fence word: 8 words
// fill one 64-byte cache line.
const fenceStride = 8

// runBuilder sizes a run before any entry is copied: its entry count,
// arena sizes and first and last keys, so every slice is made once at
// its exact final size.
type runBuilder struct {
	n, keyBytes, valBytes int
	first, last           []byte
}

// alloc makes the run sized by the builder. Offsets are 32-bit, so an
// arena past 4 GiB is refused rather than left to wrap.
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

// buildRun freezes a memtable into a sorted run, sized from the totals
// its writer kept.
func buildRun(sl *SkipList) *Run {
	b := runBuilder{n: sl.Len(), keyBytes: sl.keyBytes, valBytes: sl.valBytes}
	b.first, b.last = sl.bounds()
	r := b.alloc(true)
	sl.Ascend(func(k, v []byte, tomb bool) bool {
		r.add(k, v)
		r.tombs = append(r.tombs, tomb)
		return true
	})
	r.seal()
	return r
}

// mergeRuns merges runs (ordered newest first) into one, applying
// newest-wins semantics and dropping tombstones (a full merge is the
// bottom level, so tombstones have nothing left to shadow). The merge
// moves whole stretches of entries (merger.stretches): a first walk
// sums their sizes, so the merged run holds no spare capacity, and a
// second copies them.
func mergeRuns(runs []*Run) *Run {
	m := runMerger(runs)
	var b runBuilder
	m.stretches(func(r *Run, i, j int) {
		if b.n == 0 {
			b.first = r.key(i)
		}
		b.last = r.key(j - 1)
		b.n += j - i
		b.keyBytes += int(r.koff[j] - r.koff[i])
		b.valBytes += int(r.voff[j] - r.voff[i])
	})
	out := b.alloc(false)
	m.stretches(out.copyStretch)
	out.seal()
	return out
}

// runMerger returns a merger over runs, ordered newest first.
func runMerger(runs []*Run) *merger {
	m := &merger{src: make([]source, len(runs)), heap: make([]int32, 0, len(runs))}
	for i, r := range runs {
		m.src[i].run = r
	}
	return m
}

// stretches walks the merge of m's sources, which must all be runs,
// and calls fn with each stretch [i, j) of run r's entries that the
// merged run takes as it stands, in ascending key order. The heap's
// top run owns every key below the runner-up's current key, so a
// gallop from its cursor finds its whole stretch at once; only a key
// the runner-up shares falls back to merger.next's per-entry
// newest-wins step. Tombstones split a stretch and are left out.
func (m *merger) stretches(fn func(r *Run, i, j int)) {
	m.first()
	for len(m.heap) > 0 {
		top := &m.src[m.heap[0]]
		r, i, j := top.run, top.i, top.run.Len()
		if len(m.heap) > 1 {
			next := m.heap[1]
			if len(m.heap) > 2 && m.less(m.heap[2], next) {
				next = m.heap[2]
			}
			j = r.gallop(i, m.src[next].key)
		}
		if j == i {
			// The runner-up holds top's key too: the newest version,
			// top's, wins.
			tomb := top.tomb
			m.pass(top.key)
			if !tomb {
				fn(r, i, i+1)
			}
			continue
		}
		if r.tombs != nil {
			for x := i; x < j; x++ {
				if r.tombs[x] {
					if x > i {
						fn(r, i, x)
					}
					i = x + 1
				}
			}
		}
		if i < j {
			fn(r, i, j)
		}
		top.at(j)
		m.fixTop()
	}
}

// copyStretch appends entries [i, j) of run src, which sort after
// every entry r holds. Key and value bytes are copied in one block
// each and their offsets shifted by a constant; the search words are
// copied too when the runs share a common-prefix length, and
// recomputed otherwise.
func (r *Run) copyStretch(src *Run, i, j int) {
	r.koff = shifted(r.koff, src.koff[i+1:j+1], uint32(len(r.keys))-src.koff[i])
	r.voff = shifted(r.voff, src.voff[i+1:j+1], uint32(len(r.vals))-src.voff[i])
	r.keys = append(r.keys, src.keys[src.koff[i]:src.koff[j]]...)
	r.vals = append(r.vals, src.vals[src.voff[i]:src.voff[j]]...)
	if r.plen == src.plen {
		r.index = append(r.index, src.index[i:j]...)
		return
	}
	for x := i; x < j; x++ {
		r.index = append(r.index, word(src.key(x)[r.plen:]))
	}
}

// shifted appends each offset of src plus d to dst; uint32 arithmetic
// wraps, so a negative shift works too.
func shifted(dst, src []uint32, d uint32) []uint32 {
	n := len(dst)
	dst = dst[:n+len(src)]
	for x, o := range src {
		dst[n+x] = o + d
	}
	return dst
}

// seal builds the run's filter from its key arena and its fence from
// its index, in a pass of their own after the entries are in place: a
// tight loop overlaps the filter's cache misses, where an add per
// entry would stall on each one between two merge steps.
func (r *Run) seal() {
	n := len(r.index)
	r.filter = newBloom(n * runBitsPerKey)
	for i := range r.index {
		r.filter.add(newProbe(r.key(i)))
	}
	r.fence = make([]uint64, 0, (n+fenceStride-1)/fenceStride)
	for i := 0; i < n; i += fenceStride {
		r.fence = append(r.fence, r.index[i])
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
	lo, hi := r.blocks(w)
	lo = r.bisect(lo, hi, rest, w)
	return lo, lo < n && r.index[lo] == w
}

// blocks returns the index range [lo, hi) that the fence leaves for a
// probe with search word w: every entry before lo is below the probe
// and entry hi, if any, is not. With a the first fence word at least w,
// block a-1 starts below w, so lo is its start; with b the first fence
// word above w, hi is block b's start. Unless w ties a fence word, b
// is a and the range is the one block a-1; a tie range needs a second
// binary search for b.
func (r *Run) blocks(w uint64) (lo, hi int) {
	f := r.fence
	a, b := 0, len(f)
	for a < b {
		h := int(uint(a+b) >> 1)
		if f[h] < w {
			a = h + 1
		} else {
			b = h
		}
	}
	if b < len(f) && f[b] == w {
		for c := len(f); b < c; {
			h := int(uint(b+c) >> 1)
			if f[h] <= w {
				b = h + 1
			} else {
				c = h
			}
		}
	}
	return max(a-1, 0) * fenceStride, min(b*fenceStride, len(r.index))
}

// gallop returns the index of the first key >= k at or after i: it
// probes i, i+1, i+3, i+7, … and then bisects the last gap, so it costs
// O(log d) comparisons for an answer d entries on.
func (r *Run) gallop(i int, k []byte) int {
	n := len(r.index)
	if p := r.keys[:r.plen]; !bytes.HasPrefix(k, p) {
		if bytes.Compare(k, p) < 0 {
			return i
		}
		return n
	}
	rest := k[r.plen:]
	w := word(rest)
	hi, step := i, 1
	for hi < n && r.below(hi, rest, w) {
		i = hi + 1
		hi += step
		step <<= 1
	}
	return r.bisect(i, min(hi, n), rest, w)
}

// bisect returns the first index in [lo, hi) whose key is not below
// the probe (rest, w), or hi; every entry before lo must be below it.
func (r *Run) bisect(lo, hi int, rest []byte, w uint64) int {
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if r.below(h, rest, w) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// below reports whether entry h's key sorts before the probe whose
// bytes after the common prefix are rest, with search word w. It
// stays small enough to inline into the search loops: only a word tie
// reads the key arena.
func (r *Run) below(h int, rest []byte, w uint64) bool {
	x := r.index[h]
	return x < w || x == w && r.restBelow(h, rest)
}

// restBelow breaks a word tie on entry h's bytes after the common
// prefix.
func (r *Run) restBelow(h int, rest []byte) bool {
	return bytes.Compare(r.key(h)[r.plen:], rest) < 0
}

// Get searches the run. found reports an entry for key, and
// tomb that the entry is a tombstone; val aliases the run, capped.
func (r *Run) Get(key []byte) (val []byte, found, tomb bool) {
	if i, tie := r.search(key); tie && bytes.Equal(r.key(i), key) {
		return r.val(i), true, r.tomb(i)
	}
	return nil, false, false
}

// Len reports the number of entries (including tombstones).
func (r *Run) Len() int { return len(r.index) }
