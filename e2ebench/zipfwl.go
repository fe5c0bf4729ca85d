package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"locmps"
	"locmps/internal/serve"
	"locmps/internal/stats"
)

// Zipf workload knobs. Each ramp step sends zipfStepItems (at least
// samplesFor(0.99)) requests, so its p99 leaves ten samples beyond.
const (
	zipfRefRate   = 300.0 // req/s of the reference parts: latency_p50/p99, generator lateness
	zipfLimitMs   = 25.0  // p99 latency limit a step must meet to count towards max_rps
	zipfTrickle   = 1000  // one never-seen key (sent twice) per this many requests
	zipfGrowth    = 1.2   // rate multiplier between ramp steps
	zipfBisect    = 2     // bisection steps between the last pass and the first failure
	zipfStepItems = 1500  // requests per ramp step
	zipfItems     = 80000 // upper bound on requests one run can send
	zipfRoundRef  = 500   // reference-rate requests per measured round
	zipfRoundCap  = 1200  // closed-loop requests per measured round
	// zipfTail is the percentile behind latency_tail_ms. The p99 (printed
	// as latency_p99_ms, and the criterion of every ramp step) moves with
	// every millisecond-scale stall a shared 2-core host takes; the p90
	// repeats across runs.
	zipfTail = 0.90
)

// zipfEnv is a primed node plus the seed-determined request stream.
type zipfEnv struct {
	n     *node
	keys  []request // primed keys, by popularity rank
	fresh []request // never-seen keys, in trickle order
	items []item
	known [][]byte // the primed response body per key
}

func (e *zipfEnv) request(it item) request {
	if it.Fresh >= 0 {
		return e.fresh[it.Fresh]
	}
	return e.keys[it.Key]
}

// zipfSetup generates the key set and request stream, boots a node and
// primes every key on it (two concurrent senders).
func zipfSetup(seed int64, tr *tracer) (*zipfEnv, error) {
	e := &zipfEnv{items: zipfStream(seed, zipfKeys, zipfItems, zipfTrickle)}
	e.keys = make([]request, zipfKeys)
	for k := range e.keys {
		var err error
		if e.keys[k], err = zipfKey(seed, k); err != nil {
			return nil, err
		}
	}
	freshN := 0
	for _, it := range e.items {
		freshN = max(freshN, it.Fresh+1)
	}
	e.fresh = make([]request, freshN)
	for f := range e.fresh {
		var err error
		if e.fresh[f], err = freshKey(seed, f); err != nil {
			return nil, err
		}
	}
	n, err := startNode(tr)
	if err != nil {
		return nil, err
	}
	e.n = n
	e.known = make([][]byte, zipfKeys)
	errs := make([]error, zipfKeys)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < zipfKeys; k += maxConns {
				e.known[k], errs[k] = n.post(e.keys[k].Body, -1)
			}
		}(w)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			n.close()
			return nil, fmt.Errorf("priming key %d: %w", k, err)
		}
	}
	return e, nil
}

// variants collects every distinct response body per key with the number
// of requests that received it, so each distinct body is decoded and
// audited once after the run instead of inside the timed loop.
type variants struct {
	mu   sync.Mutex
	byID map[int][]*variant
}

type variant struct {
	body  []byte
	count int
}

func (v *variants) add(id int, body []byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, x := range v.byID[id] {
		if bytes.Equal(x.body, body) {
			x.count++
			return
		}
	}
	v.byID[id] = append(v.byID[id], &variant{body: body, count: 1})
}

// zipfRunner drives open-loop steps over consecutive slices of the
// request stream.
type zipfRunner struct {
	e        *zipfEnv
	next     int // first unsent item
	seen     variants
	rep      *report
	bytesOut atomic.Int64
}

func newZipfRunner(e *zipfEnv, rep *report) *zipfRunner {
	r := &zipfRunner{e: e, rep: rep, seen: variants{byID: map[int][]*variant{}}}
	for k, body := range e.known {
		r.seen.add(k, body)
	}
	rep.Attempted += zipfKeys // the priming requests are checked too
	return r
}

// step sends the next n items at rate (+Inf: back to back) and returns
// their samples; the request id of an item is its index in the stream.
func (r *zipfRunner) step(n int, rate float64) ([]sample, error) {
	if r.next+n > len(r.e.items) {
		return nil, fmt.Errorf("zipf: request stream exhausted (%d items)", len(r.e.items))
	}
	first := r.next
	items := r.e.items[first : first+n]
	r.next += n
	due := dueTimes(items, time.Now().Add(10*time.Millisecond), rate)
	errs := make([]error, n)
	samples := runOpenLoop(due, maxConns, func(i int) bool {
		it := items[i]
		body, err := r.e.n.post(r.e.request(it).Body, int64(first+i))
		if err != nil {
			errs[i] = err
			return false
		}
		r.bytesOut.Add(int64(len(body)))
		r.seen.add(itemID(it), body)
		return true
	})
	for i, err := range errs {
		r.rep.Attempted++
		if err != nil {
			r.rep.fail("zipf request %d: %v", first+i, err)
		}
	}
	return samples, nil
}

// check decodes and audits every distinct body; a bad body fails every
// request that received it. It returns the makespan of each primed key's
// body and of each fresh key's body (by variant id).
func (r *zipfRunner) check() map[int]float64 {
	out := map[int]float64{}
	for id, vs := range r.seen.byID {
		var rq request
		if id >= zipfKeys {
			rq = r.e.fresh[id-zipfKeys]
		} else {
			rq = r.e.keys[id]
		}
		for _, v := range vs {
			s, err := checkResponse(v.body, rq.graph())
			if err != nil {
				for c := 0; c < v.count; c++ {
					r.rep.fail("zipf key %d: %v", id, err)
				}
				continue
			}
			out[id] = s.Makespan
		}
	}
	return out
}

// ramp steps the rate up from `from` by zipfGrowth until
// two consecutive steps fail saturated (median over the limit or a growing
// backlog; a step that only misses on its p99 may be one slow request and
// does not end the ramp), then bisects zipfBisect times between the
// highest passing rate and the lowest failing rate above it. It returns
// every step's summary, the reference rate's first, and the highest
// passing rate (max_rps).
func (r *zipfRunner) ramp(ref stepSummary, from float64) ([]stepSummary, float64, error) {
	start := time.Now()
	run := func(rate float64) (stepSummary, error) {
		samples, err := r.step(zipfStepItems, rate)
		if err != nil {
			return stepSummary{}, err
		}
		return summarize(samples, rate, zipfLimitMs), nil
	}
	steps := []stepSummary{ref}
	best, saturated := 0.0, 0
	if ref.Pass {
		best = ref.Rate
	}
	for rate := math.Max(from, ref.Rate*zipfGrowth); saturated < 2 && time.Since(start) < maxWall; rate *= zipfGrowth {
		st, err := run(rate)
		if err != nil {
			return nil, 0, err
		}
		steps = append(steps, st)
		switch {
		case st.Pass:
			best, saturated = rate, 0
		case st.P50 > zipfLimitMs || st.BacklogGrowth > zipfLimitMs/2:
			saturated++
		}
	}
	for b := 0; b < zipfBisect; b++ {
		hi := math.Inf(1)
		for _, st := range steps {
			if !st.Pass && st.Rate > best {
				hi = math.Min(hi, st.Rate)
			}
		}
		if best == 0 || math.IsInf(hi, 1) {
			break
		}
		st, err := run((best + hi) / 2)
		if err != nil {
			return nil, 0, err
		}
		steps = append(steps, st)
		if st.Pass {
			best = st.Rate
		}
	}
	return steps, best, nil
}

// rounds runs the measured phase: rounds alternating zipfRoundRef
// requests at the reference rate with zipfRoundCap sent back to back from
// every sender (a closed loop: each sender posts as soon as its previous
// answer is in), so that both figures sample the host over the whole
// phase rather than one stretch of it. It returns the reference samples
// and each round's closed-loop completion rate. The heap is cut into one
// block per round.
func (r *zipfRunner) rounds(n int, heap *heapPeak) (ref []sample, capRates []float64, err error) {
	for k := 0; k < n; k++ {
		s, err := r.step(zipfRoundRef, zipfRefRate)
		if err != nil {
			return nil, nil, err
		}
		ref = append(ref, s...)
		c, err := r.step(zipfRoundCap, math.Inf(1))
		if err != nil {
			return nil, nil, err
		}
		done := make([]time.Time, len(c))
		for i, x := range c {
			done[i] = x.Done
		}
		rate, _, ok := completionRate(done, len(done))
		if !ok {
			return nil, nil, fmt.Errorf("zipf: no closed-loop rate from %d completions", len(done))
		}
		capRates = append(capRates, rate)
		heap.cut()
	}
	return ref, capRates, nil
}

// keyQuality is the geometric mean of makespan over lower bound across
// the primed keys' served schedules.
func (e *zipfEnv) keyQuality(makespans map[int]float64) (float64, error) {
	var ratios []float64
	for k, rq := range e.keys {
		ms, ok := makespans[k]
		if !ok {
			continue
		}
		lb, err := locmps.MakespanLowerBound(rq.graph(), rq.Req.Cluster)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, ms/lb)
	}
	return stats.GeoMean(ratios)
}

func runZipf(o opts) (*report, error) {
	env, setupS, err := repeatSetup(zipfSetupReps, func() (*zipfEnv, error) { return zipfSetup(o.Seed, nil) },
		func(e *zipfEnv) { e.n.close() })
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	rep := &report{}
	r := newZipfRunner(env, rep)
	refSamples, capRates, err := r.rounds(zipfRoundsFor(o.Seconds), heap)
	peak := heap.finish()
	var steps []stepSummary
	var best float64
	if err == nil {
		// Half the closed-loop rate is well below saturation, so the
		// ramp skips the steps that could only pass.
		steps, best, err = r.ramp(summarize(refSamples, zipfRefRate, zipfLimitMs), median(capRates)/2)
	}
	env.n.close()
	if err != nil {
		return nil, err
	}
	quality, err := env.keyQuality(r.check())
	if err != nil {
		return nil, err
	}
	ref := steps[0]
	refLat := latencies(refSamples)
	tail, windows, ok := windowQuantile(refLat, zipfTail)
	if !ok {
		return nil, fmt.Errorf("zipf: reference step of %d requests is too short for a p90", ref.N)
	}
	p99, p99Windows, _ := windowQuantile(refLat, 0.99)
	rep.add("latency_p50_ms", "ms", ref.P50, fmt.Sprintf("at %.0f req/s, timed from due, n=%d", ref.Rate, ref.N))
	rep.add("latency_tail_ms", "ms", tail, fmt.Sprintf("median p90 of %d windows of %d requests at %.0f req/s, %d beyond each", windows, samplesFor(zipfTail), ref.Rate, minBeyond))
	rep.add("throughput_per_s", "1/s", median(capRates), fmt.Sprintf("closed loop, %d senders back to back: median over %d rounds of %d requests", maxConns, len(capRates), zipfRoundCap))
	rep.add("makespan_vs_lb", "ratio", quality, fmt.Sprintf("geomean over %d primed keys", zipfKeys))
	rep.add("peak_heap_mb", "MB", peak, fmt.Sprintf("median of the peak live heap of each of the %d rounds", len(capRates)))
	rep.add("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (%d keys generated and primed)", zipfSetupReps, zipfKeys))
	rep.info("latency_p99_ms", "ms", p99, fmt.Sprintf("median p99 of %d windows of %d requests; whole step %.3f ms, n=%d, %d beyond", p99Windows, samplesFor(0.99), ref.P99, ref.N, ref.Beyond))
	rep.info("max_rps", "1/s", best, fmt.Sprintf("highest open-loop step with p99 <= %.0f ms and no growing backlog", zipfLimitMs))
	rep.info("gen.late_p99_ms", "ms", ref.LateP99, "open-loop generator lateness at the reference rate")
	for i, st := range steps {
		rep.info(fmt.Sprintf("step%d.rate", i), "1/s", st.Rate, fmt.Sprintf("n=%d p50=%.2fms p99=%.2fms late_p99=%.2fms backlog_growth=%.2fms pass=%v",
			st.N, st.P50, st.P99, st.LateP99, st.BacklogGrowth, st.Pass))
	}
	return rep, nil
}

// zipfRoundsFor is how many measured rounds (about 2.6 s each on a 2-core
// host) fit in about 60% of the run; set-up and the max_rps ramp take the
// rest.
func zipfRoundsFor(seconds float64) int {
	return max(3, int(seconds/4))
}

// itemID names the key an item sends: a primed key's rank, or zipfKeys
// plus a fresh key's index.
func itemID(it item) int {
	if it.Fresh >= 0 {
		return zipfKeys + it.Fresh
	}
	return it.Key
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latencyMs()
	}
	return out
}

func traceZipf(o opts) (*report, error) {
	rep := &report{}
	seg := o.Seconds / 4
	n := max(zipfStepItems, int(zipfRefRate*seg))
	envA, err := zipfSetup(o.Seed, nil)
	if err != nil {
		return nil, err
	}
	rA := newZipfRunner(envA, rep)
	plain, err := rA.step(n, zipfRefRate)
	envA.n.close()
	if err != nil {
		return nil, err
	}
	rA.check()

	tr := newTracer()
	envB, err := zipfSetup(o.Seed, tr)
	if err != nil {
		return nil, err
	}
	before := envB.n.srv.Stats()
	rB := newZipfRunner(envB, rep)
	traced, err := rB.step(n, zipfRefRate)
	after := envB.n.srv.Stats()
	searchWorkers := envB.n.svc.Stats().SearchWorkers
	envB.n.close()
	if err != nil {
		return nil, err
	}
	makespans := rB.check()
	items := envB.items[:n]
	bodies := make([][]byte, n)
	var bytesIn int64
	for i, it := range items {
		bodies[i] = envB.request(it).Body
		bytesIn += int64(len(bodies[i]))
	}

	// The replay service holds the same primed keys as the node.
	rsvc := serve.New(serve.Config{SearchWorkers: searchWorkers})
	for _, k := range envB.keys {
		if _, err := rsvc.Schedule(k.Req); err != nil {
			rsvc.Close()
			return nil, err
		}
	}
	nrep, violations, err := replayPass(tr, rsvc, bodies, time.Now().Add(dur(seg)))
	rsvc.Close()
	if err != nil {
		return nil, err
	}
	// Core counts come from the trickle: the only requests that search.
	var fresh []request
	var want []float64
	for _, it := range items {
		if it.Fresh >= 0 && !it.Repeat {
			fresh = append(fresh, envB.fresh[it.Fresh])
			want = append(want, makespans[itemID(it)])
		}
	}
	if len(fresh) == 0 {
		fresh, want = envB.fresh[:1], []float64{0}
	}
	ms1, agg, err := enginePass(tr, fresh, searchWorkers, time.Now().Add(dur(seg)), func(i int) float64 { return want[i] })
	if err != nil {
		return nil, err
	}
	k := min(3, len(ms1))
	ms2, _, err := enginePass(nil, fresh[:k], searchWorkers, time.Now().Add(time.Hour), func(int) float64 { return 0 })
	if err != nil {
		return nil, err
	}

	l := newLayers()
	spans := tr.snapshot()
	httpLayers(l, rep, spans, nrep, func(i int) bool { return items[i].Fresh >= 0 })
	nodeLayers(l, before, after, bytesIn, rB.bytesOut.Load(), n)
	agg.fill(l)
	l["audit.violations"] = float64(violations)
	l["trace.overhead_pct"] = overheadPct(latencies(plain), latencies(traced))
	ref := summarize(plain, zipfRefRate, zipfLimitMs)
	l.into(rep)
	rep.info("gen.late_p99_ms", "ms", ref.LateP99, fmt.Sprintf("untraced pass at %.0f req/s, gap %.2f ms", zipfRefRate, 1000/zipfRefRate))
	rep.info("core.searches", "count", float64(agg.n), "engine replays of trickle keys behind the core.* figures")
	rep.Determinism = append(determinism(ms1[:k], ms2),
		"service.*, httpserve.* counts come from one live node and depend on request timing: not compared")
	rep.Spans = spans
	return rep, nil
}
