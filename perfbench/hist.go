package main

import (
	"math"
	"math/bits"
	"time"
)

// histSubBits sets the histogram resolution: 2^histSubBits linear
// sub-buckets per power of two, so a bucket spans at most 1/128 (0.8 %)
// of its lower bound.
const histSubBits = 7

const (
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// Histogram records durations (nanoseconds) in a fixed-size, log-bucketed
// table. Its size never depends on the sample count, so recording a long
// run costs no heap beyond the table itself and leaves heap_mb alone.
// It is not safe for concurrent use; each recording goroutine owns one
// and the owner merges them after the run.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= histSubBits
	sub := int(uint64(v)>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// bucketBounds returns the lower bound and width of bucket i.
func bucketBounds(i int) (lower, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	w := math.Ldexp(1, e-histSubBits)
	return float64(histSub+sub) * w, w
}

// Record adds one duration.
func (h *Histogram) Record(d time.Duration) { h.RecordNanos(int64(d)) }

// RecordNanos adds one value in nanoseconds.
func (h *Histogram) RecordNanos(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count is the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Merge adds every value recorded in o.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) in
// nanoseconds, interpolated linearly inside its bucket by the rank's
// position among the bucket's samples. Zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return float64(h.max)
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lower, width := bucketBounds(i)
			v := lower + width*(float64(rank-seen)-0.5)/float64(c)
			return math.Min(v, float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}

// QuantileMs is Quantile in milliseconds.
func (h *Histogram) QuantileMs(q float64) float64 { return h.Quantile(q) / 1e6 }

// QuantileUs is Quantile in microseconds.
func (h *Histogram) QuantileUs(q float64) float64 { return h.Quantile(q) / 1e3 }

// tailPercentiles are the candidate tail percentiles, in hundredths of a
// percent.
var tailPercentiles = []int{9999, 9990, 9900, 9000, 5000}

// TailPercentile returns the highest of p50, p90, p99, p99.9 and p99.99
// that has at least ten of n samples beyond it, or 0 when n < 20.
func TailPercentile(n uint64) float64 {
	for _, c := range tailPercentiles {
		if n*uint64(10000-c) >= 10*10000 {
			return float64(c) / 100
		}
	}
	return 0
}

// numWindows is how many equal time windows a throughput phase is split
// into; the reported rate is the median over the windows, so one stall
// (a GC cycle, a slow control-plane tick) moves one window, not the
// run's figure.
const numWindows = 5

// rateWindows counts completions per time window of a phase.
type rateWindows struct {
	width time.Duration
	count [numWindows]int64
}

func newRateWindows(phase time.Duration) *rateWindows {
	return &rateWindows{width: max(phase/numWindows, 1)}
}

// Count adds one completion at offset at from the phase start; offsets
// past the end land in the last window.
func (w *rateWindows) Count(at time.Duration) {
	w.count[min(max(int(at/w.width), 0), numWindows-1)]++
}

// Merge adds o's counts to w's.
func (w *rateWindows) Merge(o *rateWindows) {
	for i := range w.count {
		w.count[i] += o.count[i]
	}
}

// MedianRate is the median over windows of completions per second.
func (w *rateWindows) MedianRate() float64 {
	v := make([]float64, numWindows)
	for i, c := range w.count {
		v[i] = float64(c) / w.width.Seconds()
	}
	return median(v)
}
