package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// zipfSampler draws ranks 0..n-1 with P(r) proportional to 1/(r+1)^s.
// math/rand.Zipf needs s > 1; the classic web-cache exponent is s = 1.
type zipfSampler struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipfSampler {
	z := &zipfSampler{cdf: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipfSampler) draw(rng *rand.Rand) int {
	u := rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// item is one request of the open-loop zipf stream: a primed key (Key >= 0)
// or a never-seen key (Fresh >= 0). Repeat marks the second send of a fresh
// key, issued while the first one is still being scheduled.
type item struct {
	Key    int
	Fresh  int
	Repeat bool
}

// zipfStream is the seed-determined request sequence of the zipf workload:
// Zipf draws over the primed keys with a fresh key (plus its immediate
// repeat) every trickleEvery requests. Only the content is fixed here; the
// open loop decides when each item is due.
func zipfStream(seed int64, keys, n, trickleEvery int) []item {
	rng := rand.New(rand.NewSource(seed))
	z := newZipf(keys, 1.0)
	out := make([]item, 0, n)
	fresh := 0
	for len(out) < n {
		if trickleEvery > 0 && len(out) > 0 && len(out)%trickleEvery == 0 {
			out = append(out, item{Key: -1, Fresh: fresh}, item{Key: -1, Fresh: fresh, Repeat: true})
			fresh++
			continue
		}
		out = append(out, item{Key: z.draw(rng), Fresh: -1})
	}
	return out[:n]
}

// dueTimes spaces n requests evenly at rate per second from start; at an
// infinite rate every request is due at start, so the senders post back
// to back. A fresh
// key's repeat is due together with its first send, so it reaches the node
// while the first search is still running and coalesces onto it.
func dueTimes(items []item, start time.Time, rate float64) []time.Time {
	gap := time.Duration(float64(time.Second) / rate)
	due := make([]time.Time, len(items))
	slot := 0
	for i, it := range items {
		if it.Repeat && i > 0 {
			due[i] = due[i-1]
			continue
		}
		due[i] = start.Add(time.Duration(slot) * gap)
		slot++
	}
	return due
}
