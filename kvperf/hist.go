package main

import "math/bits"

// subBits sets the histogram resolution: 2^subBits linear sub-buckets
// per power of two, so a bucket is under 1.6% of its value wide.
const subBits = 6

// histSize covers every non-negative int64 nanosecond value.
const histSize = (64 - subBits) << subBits

// hist is a log-linear latency histogram in nanoseconds. Quantiles
// interpolate inside the bucket that holds the rank, so they move
// continuously with the data; lockstat.Hist's power-of-two buckets would
// report the same bucket midpoint run after run. A hist has one writer
// (the client that owns it); merge combines them after the run.
type hist struct {
	n      uint64
	sum    int64
	counts [histSize]uint64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	shift := bits.Len64(u) - subBits - 1
	return (shift+1)<<subBits + int(u>>shift) - 1<<subBits
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := uint64(i&(1<<subBits-1) + 1<<subBits)
	return float64(mant << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v int64) {
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-th quantile (0 < q < 1), or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketRange(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketRange(histSize - 1)
	return lo + width
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
