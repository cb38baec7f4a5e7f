package kvstore

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// runBitsPerKey sizes a run's filter, LevelDB's default; memBytesPerBit
// sizes a memtable's from its freeze budget, about 18 bits per distinct
// key of a 16-byte key and 100-byte value, which take 145 arena bytes
// on average (a 116-byte record and a node of 24 bytes plus 4 per tower
// level, 4/3 levels on average). Overwrites take arena bytes but add no
// key, so a list that holds them has more bits per key.
const (
	runBitsPerKey  = 10
	memBytesPerBit = 8
)

// bloom is a word-blocked Bloom filter: a key selects one uint64 word
// and sets five bits in it, so a lookup costs one load whatever the
// filter's size. A filter errs only one way: a key that was added
// always passes.
//
// A run's filter is filled with plain stores before the run is
// published under the store lock. A memtable's filter is filled while
// readers probe it, so its single writer stores a key's bits atomically
// before linking the key's node, and readers load words atomically: a
// reader that can reach the node also sees its bits.
type bloom []uint64

// newBloom makes a filter of at least nbits bits.
func newBloom(nbits int) bloom {
	return make(bloom, max(1, (nbits+63)/64))
}

// probe is a key's filter address: the word selector, scaled to each
// filter's length, and the bits to test in that word. One probe serves
// every filter a Get consults.
type probe struct {
	mask uint64
	sel  uint32
}

// newProbe hashes k once into its probe: the hash's high half selects
// the word, and each of the five low six-bit groups names a bit. The
// number of keys per word varies, so crowded words dominate the
// false-positive rate; at 10 bits per key, five probes beat the
// classic optimum of seven (ln 2 × bits per key), 1.7% to 1.9% in the
// Poisson model of words' loads.
func newProbe(k []byte) probe {
	h := filterHash(k)
	return probe{
		mask: 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63) | 1<<(h>>18&63) | 1<<(h>>24&63),
		sel:  uint32(h >> 32),
	}
}

// filterHash hashes k in the manner of wyhash, 16 bytes per
// 64×64→128-bit multiply: two multiplies for a key of up to 16 bytes,
// one more per further 16. It is deterministic and independent of
// shardIndex's FNV-1a: every key of a shard has the same FNV-1a value
// modulo the shard count, so a filter indexed by it would use a
// fraction of its words.
func filterHash(k []byte) uint64 {
	const s0, s1, s2 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3
	n := len(k)
	seed := uint64(s2)
	i := 0
	for ; n-i > 16; i += 16 {
		seed = mix(binary.LittleEndian.Uint64(k[i:])^s1, binary.LittleEndian.Uint64(k[i+8:])^seed)
	}
	// The last 16 bytes, or the first and last 8 of a shorter key;
	// the length, mixed in below, tells overlapping reads apart.
	var a, b uint64
	if n >= 8 {
		a, b = binary.LittleEndian.Uint64(k[max(n-16, 0):]), binary.LittleEndian.Uint64(k[n-8:])
	} else {
		for _, c := range k {
			a = a<<8 | uint64(c)
		}
	}
	lo, hi := bits.Mul64(a^s1, b^seed)
	return mix(lo^s0^uint64(n), hi^s1)
}

// mix folds the 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// word returns the word p selects in f.
func (f bloom) word(p probe) *uint64 {
	return &f[uint64(p.sel)*uint64(len(f))>>32]
}

// add sets p's bits with a plain store, for a filter no reader sees yet.
func (f bloom) add(p probe) { *f.word(p) |= p.mask }

// addShared sets p's bits with an atomic store, for a filter readers
// probe. Writers must be serialized, as a memtable's are by the store
// lock; readers' loads never lose bits, since a store only adds them.
func (f bloom) addShared(p probe) {
	w := f.word(p)
	atomic.StoreUint64(w, atomic.LoadUint64(w)|p.mask)
}

// mayContain reports whether p's key may have been added.
func (f bloom) mayContain(p probe) bool {
	return atomic.LoadUint64(f.word(p))&p.mask == p.mask
}
