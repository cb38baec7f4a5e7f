package lockstat

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// HistBuckets is the fixed bucket count of the log₂ latency histogram.
// Bucket 0 holds sub-nanosecond observations; bucket i (i ≥ 1) holds
// latencies in [2^(i-1), 2^i) ns. 40 buckets therefore span 1 ns to
// ~9 minutes, with everything larger clamped into the last bucket.
const HistBuckets = 40

// Hist is a fixed-bucket log-scale latency histogram with atomic
// buckets. The zero value is ready to use. Recording is one atomic
// increment — no locks, no allocation, wait-free.
type Hist struct {
	buckets [HistBuckets]counterSlim
}

// counterSlim is an unpadded atomic bucket: histogram buckets are
// written sparsely (a given workload hits a handful of adjacent
// buckets), so padding all 40 to full lines would cost 2.5 KiB per
// histogram for little contention relief.
type counterSlim struct{ v atomic.Uint64 }

func (c *counterSlim) add(n uint64) { c.v.Add(n) }
func (c *counterSlim) load() uint64 { return c.v.Load() }

// Observe records one latency observation in nanoseconds. Negative
// values (clock anomalies) are clamped to bucket 0.
func (h *Hist) Observe(ns int64) {
	h.bucketFor(ns).add(1)
}

func (h *Hist) bucketFor(ns int64) *counterSlim {
	var b int
	if ns > 0 {
		b = bits.Len64(uint64(ns)) // ns ∈ [2^(b-1), 2^b)
		if b >= HistBuckets {
			b = HistBuckets - 1
		}
	}
	return &h.buckets[b]
}

// Snapshot copies the bucket counts.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].load()
	}
	return s
}

// BucketBounds returns the half-open latency range [lo, hi) covered by
// bucket i.
func BucketBounds(i int) (lo, hi time.Duration) {
	if i <= 0 {
		return 0, 1
	}
	return time.Duration(1) << (i - 1), time.Duration(1) << i
}

// HistSnapshot is a point-in-time copy of a Hist.
type HistSnapshot struct {
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// Count returns the total number of observations.
func (h HistSnapshot) Count() uint64 {
	var n uint64
	for _, b := range h.Buckets {
		n += b
	}
	return n
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) as the geometric
// midpoint of the bucket containing the q-th observation. Returns 0
// for an empty histogram.
func (h HistSnapshot) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if cum >= rank {
			lo, hi := BucketBounds(i)
			return time.Duration(math.Sqrt(float64(lo) * float64(hi)))
		}
	}
	lo, hi := BucketBounds(HistBuckets - 1)
	return time.Duration(math.Sqrt(float64(lo) * float64(hi)))
}

// String renders the non-zero buckets as an ASCII bar view, one line
// per bucket with its log-scale latency range, count and a scaled bar.
func (h HistSnapshot) String() string {
	max := uint64(1)
	for _, b := range h.Buckets {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		bar := int(b * 40 / max)
		fmt.Fprintf(&sb, "%10v … %-10v | %-40s %d\n", lo, hi, strings.Repeat("#", bar), b)
	}
	if sb.Len() == 0 {
		return "(empty)\n"
	}
	return sb.String()
}
