package main

import (
	"math"
	"sort"
	"time"
)

// hist is a log-bucketed latency histogram: constant memory however long
// the run, so the live-heap metric does not grow with throughput. Buckets
// grow by histGrowth; quantiles interpolate by rank inside a bucket, so a
// value carries all its measured digits rather than a bucket edge.
type hist struct {
	counts []int64
	n      int64
	sum    float64
	max    float64
}

const (
	histGrowth  = 1.005
	histBuckets = 5200 // 1 ns .. ~190 s
)

var histLogGrowth = math.Log(histGrowth)

func newHist() *hist { return &hist{counts: make([]int64, histBuckets)} }

// add records one sample in nanoseconds.
func (h *hist) add(ns float64) {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(ns) / histLogGrowth)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) addDur(d time.Duration) { h.add(float64(d)) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// mean returns the mean sample in nanoseconds (0 when empty).
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := math.Exp(float64(i) * histLogGrowth)
			hi := lo * histGrowth
			frac := (rank - float64(cum)) / float64(c)
			v := lo + (hi-lo)*frac
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// beyond reports how many samples lie above the q-quantile — the
// percentile is only reported when at least ten do.
func (h *hist) beyond(q float64) int64 {
	return h.n - int64(math.Ceil(q*float64(h.n)))
}

// meanAcc accumulates samples for their mean and its standard error.
type meanAcc struct{ n, sum, sumSq float64 }

func (a *meanAcc) add(x float64) {
	a.n++
	a.sum += x
	a.sumSq += x * x
}

func (a *meanAcc) merge(b meanAcc) {
	a.n += b.n
	a.sum += b.sum
	a.sumSq += b.sumSq
}

func (a meanAcc) mean() float64 { return ratio(a.sum, a.n) }

// se is the standard error of the mean (0 with fewer than two samples).
func (a meanAcc) se() float64 {
	if a.n < 2 {
		return 0
	}
	v := (a.sumSq - a.sum*a.sum/a.n) / (a.n - 1)
	return math.Sqrt(math.Max(v, 0) / a.n)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms, us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// argmax returns the index of the first largest value, matching the
// platform's tie-break.
func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// bitsEqual reports bit-for-bit equality of two float32 slices.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
