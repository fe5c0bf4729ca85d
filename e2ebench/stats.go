package main

import (
	"math"
	"sort"
	"time"

	"locmps/internal/stats"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it. A p99 over 200 samples is the second-largest value, which says
// more about one unlucky request than about the tail; with ten samples
// beyond, the figure is a property of the distribution.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of samples (q in (0,1]) and
// how many samples lie strictly beyond its rank. It sorts a copy. ok is
// false when the sample is too small for the rank to leave minBeyond
// samples above it; the value is still returned for diagnostics.
func quantile(samples []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond = n - 1 - rank
	return s[rank], beyond, beyond >= minBeyond
}

// samplesFor returns the smallest sample count whose q-quantile leaves
// minBeyond samples above it.
func samplesFor(q float64) int {
	for n := 1; ; n++ {
		if _, beyond, ok := quantile(make([]float64, n), q); ok && beyond >= minBeyond {
			return n
		}
	}
}

// median is the 0.5 nearest-rank quantile.
func median(samples []float64) float64 {
	v, _, _ := quantile(samples, 0.5)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowQuantile splits samples, in the order they were taken, into
// consecutive windows of samplesFor(q) (the last, shorter remainder is
// dropped) and returns the median of the windows' q-quantiles, with the
// window count. Each window's quantile has minBeyond samples beyond it;
// the median keeps a stall confined to one window from setting the
// figure. ok is false when not even one window fits.
func windowQuantile(samples []float64, q float64) (v float64, windows int, ok bool) {
	return windowMedian(samples, samplesFor(q), func(w []float64) float64 {
		x, _, _ := quantile(w, q)
		return x
	})
}

// windowRate is the median over consecutive windows of n latencies (ms)
// of n divided by the window's summed latency: the completion rate per
// second of a closed loop, robust to one slow window.
func windowRate(latMs []float64, n int) (v float64, windows int, ok bool) {
	return windowMedian(latMs, n, func(w []float64) float64 {
		return 1000 / stats.Mean(w)
	})
}

// completionRate is the median over consecutive windows of n completion
// times of the window's completions per second: the throughput of a
// closed loop, robust to one slow window. It sorts a copy.
func completionRate(done []time.Time, n int) (v float64, windows int, ok bool) {
	if len(done) == 0 {
		return 0, 0, false
	}
	t := make([]float64, len(done))
	for i, d := range done {
		t[i] = d.Sub(done[0]).Seconds()
	}
	sort.Float64s(t)
	return windowMedian(t, n, func(w []float64) float64 {
		return float64(len(w)-1) / (w[len(w)-1] - w[0])
	})
}

func windowMedian(samples []float64, n int, f func([]float64) float64) (float64, int, bool) {
	var vs []float64
	for i := 0; i+n <= len(samples); i += n {
		vs = append(vs, f(samples[i:i+n]))
	}
	if len(vs) == 0 {
		return 0, 0, false
	}
	return median(vs), len(vs), true
}
