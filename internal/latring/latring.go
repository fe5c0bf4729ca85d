// Package latring provides a fixed-size sliding window of request
// latencies with nearest-rank quantile reporting. The scheduling service
// uses it for its Stats p50/p99, and the HTTP client uses it to derive the
// p99-based hedging delay — quantiles over the most recent completions are
// what both a load driver watching a phase change and a tail-latency
// hedger want.
package latring

import (
	"sort"
	"sync"
	"time"
)

// Ring is a sliding window over the last `size` recorded latencies. The
// zero value is not usable; construct with New. All methods are safe for
// concurrent use.
type Ring struct {
	mu  sync.Mutex
	buf []int64 // nanoseconds
	n   int     // total recordings ever; buf index wraps at len(buf)
}

// New returns a ring holding the most recent size samples (at least 1).
func New(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{buf: make([]int64, size)}
}

// Record appends one latency, overwriting the oldest once the window is
// full.
func (r *Ring) Record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.n%len(r.buf)] = int64(d)
	r.n++
	r.mu.Unlock()
}

// Count reports how many samples the window currently holds (saturating at
// the window size).
func (r *Ring) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled()
}

func (r *Ring) filled() int {
	if r.n > len(r.buf) {
		return len(r.buf)
	}
	return r.n
}

// snapshot copies the currently held samples in ascending order.
func (r *Ring) snapshot() []int64 {
	r.mu.Lock()
	m := r.filled()
	cp := make([]int64, m)
	copy(cp, r.buf[:m])
	r.mu.Unlock()
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp
}

// Rank maps a percentile to its nearest-rank index in a sorted sample of m
// elements: ceil(q/100 * m) - 1, clamped to [0, m-1]. Unlike the naive
// (m-1)*q/100 it never under-indexes the tail — with 2 samples the p99 is
// the larger one, not the smaller.
func Rank(m, q int) int {
	if m < 1 {
		return 0
	}
	i := (m*q + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > m {
		i = m
	}
	return i - 1
}

// Quantile reports the q-th percentile (nearest rank) of the window, or 0
// when the window is empty.
func (r *Ring) Quantile(q int) time.Duration {
	cp := r.snapshot()
	if len(cp) == 0 {
		return 0
	}
	return time.Duration(cp[Rank(len(cp), q)])
}

// Quantiles reports the window's p50 and p99 in one pass (zeros when
// empty). p50 <= p99 always: the rank function is monotone in q.
func (r *Ring) Quantiles() (p50, p99 time.Duration) {
	cp := r.snapshot()
	if len(cp) == 0 {
		return 0, 0
	}
	return time.Duration(cp[Rank(len(cp), 50)]), time.Duration(cp[Rank(len(cp), 99)])
}
