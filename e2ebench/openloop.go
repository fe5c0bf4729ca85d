package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"locmps/internal/stats"
)

// sample records one open-loop request: when it was due, when the
// generator actually sent it, when the answer was in, and whether it was
// a correct 200.
type sample struct {
	Due, Sent, Done time.Time
	OK              bool
}

// latencyMs is the latency the caller saw, timed from when the request was
// due (so generator lag counts against the system, not in its favour). A
// failed request never meets any latency limit.
func (s sample) latencyMs() float64 {
	if !s.OK {
		return math.Inf(1)
	}
	return ms(s.Done.Sub(s.Due))
}

// lateMs is how far behind schedule the generator sent the request.
func (s sample) lateMs() float64 {
	if d := s.Sent.Sub(s.Due); d > 0 {
		return ms(d)
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOpenLoop sends len(due) requests from `senders` goroutines. Each
// sender claims the next request in order, waits until it is due, and
// sends it; a sender still busy with an earlier request sends the next one
// late, and the lateness is charged to that request. do(i) performs request
// i and reports whether its answer was correct.
func runOpenLoop(due []time.Time, senders int, do func(i int) bool) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := time.Until(due[i]); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := do(i)
				out[i] = sample{Due: due[i], Sent: sent, Done: time.Now(), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// stepSummary is the verdict on one fixed-rate step of the open loop.
type stepSummary struct {
	Rate          float64
	N, Failed     int
	P50, P99      float64 // ms, timed from due
	Beyond        int     // samples beyond the p99 rank
	LateP99       float64 // ms the generator ran behind, p99
	BacklogGrowth float64 // ms: mean lateness of the last quarter minus the first
	Pass          bool
}

// summarize judges a step against a p99 latency limit: the step passes
// when its p99 (with at least minBeyond samples beyond it) meets the limit
// and the generator's lateness did not grow across the step by more than
// half the limit — a queue that is still filling up at the end of the step
// would miss the limit if the step ran longer.
func summarize(samples []sample, rate, limitMs float64) stepSummary {
	st := stepSummary{Rate: rate, N: len(samples)}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.latencyMs()
		late[i] = s.lateMs()
		if !s.OK {
			st.Failed++
		}
	}
	st.P50 = median(lat)
	var ok bool
	st.P99, st.Beyond, ok = quantile(lat, 0.99)
	st.LateP99, _, _ = quantile(late, 0.99)
	q := len(late) / 4
	if q > 0 {
		st.BacklogGrowth = stats.Mean(late[len(late)-q:]) - stats.Mean(late[:q])
	}
	st.Pass = ok && st.P99 <= limitMs && st.BacklogGrowth <= limitMs/2
	return st
}
