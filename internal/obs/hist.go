package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the number of log2 histogram buckets: bucket i counts
// observations in [2^(i-1), 2^i) nanoseconds (bucket 0 holds ≤ 1ns), which
// spans sub-nanosecond to ~292 years in 64 buckets at ≤ 2× resolution.
const numBuckets = 64

// Histogram is a fixed-size log2-bucketed latency histogram: observation
// is two atomic adds plus an atomic max, no allocation, no lock. The zero
// value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for a duration.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Observe records one duration. Nil-safe: a nil histogram ignores the
// observation.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations; a nil histogram has none.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return int64(h.count.Load())
}

// Snapshot captures the histogram with derived percentiles. Concurrent
// observations may tear across buckets by at most the in-flight updates;
// the snapshot is monotone and self-consistent enough for reporting.
func (h *Histogram) Snapshot() LatencyStats {
	var s LatencyStats
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	s.Buckets = make([]uint64, numBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.fillQuantiles()
	return s
}

// LatencyStats is a point-in-time histogram summary. Buckets carries the
// raw log2 bucket counts (bucket i covers [2^(i-1), 2^i) ns), so snapshots
// from different processes can be merged exactly before percentiles are
// derived — percentiles themselves do not compose.
type LatencyStats struct {
	// Count is the number of observations.
	Count uint64
	// Sum is the total of all observations.
	Sum time.Duration
	// Max is the largest observation.
	Max time.Duration
	// P50, P95 and P99 are percentile estimates, exact to the ≤ 2× log2
	// bucket resolution and capped at Max.
	P50, P95, P99 time.Duration
	// Buckets holds the per-bucket counts (see type comment).
	Buckets []uint64
}

// Mean returns the average observation, or 0 when empty.
func (l LatencyStats) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by nearest rank, the
// ⌈q·Count⌉-th smallest observation (at least the first): the upper bound
// of the bucket holding it, capped at Max.
func (l LatencyStats) Quantile(q float64) time.Duration {
	if l.Count == 0 || len(l.Buckets) == 0 {
		return 0
	}
	rank := min(uint64(max(1, math.Ceil(q*float64(l.Count)))), l.Count)
	var cum uint64
	for i, c := range l.Buckets {
		cum += c
		if cum >= rank {
			// Upper bound of bucket i is 2^i ns (bucket 0 → 1ns).
			est := time.Duration(1) << uint(i)
			if l.Max > 0 && est > l.Max {
				est = l.Max
			}
			return est
		}
	}
	return l.Max
}

func (l *LatencyStats) fillQuantiles() {
	l.P50 = l.Quantile(0.50)
	l.P95 = l.Quantile(0.95)
	l.P99 = l.Quantile(0.99)
}

// MergeLatency combines two snapshots bucket-wise and re-derives the
// percentiles of the union. Either argument may be the zero value.
func MergeLatency(a, b LatencyStats) LatencyStats {
	out := LatencyStats{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Max:   a.Max,
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	n := len(a.Buckets)
	if len(b.Buckets) > n {
		n = len(b.Buckets)
	}
	if n > 0 {
		out.Buckets = make([]uint64, n)
		copy(out.Buckets, a.Buckets)
		for i, c := range b.Buckets {
			out.Buckets[i] += c
		}
	}
	out.fillQuantiles()
	return out
}
