package main

import (
	"fmt"
	"time"

	"locmps"
	"locmps/internal/serve"
	"locmps/internal/stats"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured. The zipf set-up primes
// a node and takes about a second.
const (
	setupReps     = 5
	zipfSetupReps = 5
)

// repeatSetup runs setup reps times, tears down all but the last result
// and returns it with the median set-up time in seconds.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for k := 0; k < reps; k++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if k < reps-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(secs), nil
}

// coldPool is how many distinct requests a cold set-up prepares; a run
// ends early if it exhausts them.
const coldPool = 1500

// coldTail is the tail percentile reported on cold (and stream).
const coldTail = 0.90

type coldEnv struct {
	n    *node
	reqs []request
}

func coldSetup(seed int64, tr *tracer) (*coldEnv, error) {
	reqs := make([]request, coldPool)
	for i := range reqs {
		var err error
		if reqs[i], err = coldRequest(seed, i); err != nil {
			return nil, err
		}
	}
	n, err := startNode(tr)
	if err != nil {
		return nil, err
	}
	return &coldEnv{n: n, reqs: reqs}, nil
}

// coldResult is one closed-loop pass: per-request latency and response
// body (nil when the request failed) in request order.
type coldResult struct {
	lat    []float64
	bodies [][]byte
	errs   []error
	wall   time.Duration
}

// coldLoop posts requests one at a time, in order, until `seconds` have
// passed and at least minSamples answered (capped at maxWall), or the pool
// runs out. The heap, when measured, is sampled in blocks of
// heapBlockReqs requests after the first heapWarmReqs.
func coldLoop(n *node, reqs []request, seconds float64, minSamples int, heap *heapPeak) coldResult {
	var res coldResult
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	hardStop := start.Add(maxWall)
	for i := 0; i < len(reqs); i++ {
		now := time.Now()
		if now.After(hardStop) || (now.After(deadline) && len(res.lat) >= minSamples) {
			break
		}
		t0 := time.Now()
		body, err := n.post(reqs[i].Body, int64(i))
		res.lat = append(res.lat, ms(time.Since(t0)))
		res.bodies = append(res.bodies, body)
		res.errs = append(res.errs, err)
		switch done := len(res.lat); {
		case done == heapWarmReqs:
			heap.discard() // warm-up: the node's state registry fills
		case done > heapWarmReqs:
			heap.cutAt(done-heapWarmReqs, heapBlockReqs, heapBlocks)
		}
	}
	res.wall = time.Since(start)
	return res
}

// The cold heap is the median peak of heapBlocks blocks of heapBlockReqs
// requests, taken after heapWarmReqs requests: by then the node's
// cross-request state registry (64 entries) is full and the live heap
// reflects its steady contents rather than how far it has filled.
const (
	heapWarmReqs  = 100
	heapBlockReqs = 20
	heapBlocks    = 5
	coldMinReqs   = heapWarmReqs + heapBlockReqs*heapBlocks
)

// maxWall bounds any measured phase so that a run always ends well within
// the three minutes the benchmark contract allows.
const maxWall = 100 * time.Second

// checkCold decodes and audits every response of a pass; it returns the
// makespans (0 where the request failed) and the makespan/lower-bound
// ratios of the good ones.
func checkCold(rep *report, reqs []request, res coldResult) (makespans, ratios []float64) {
	makespans = make([]float64, len(res.bodies))
	for i, body := range res.bodies {
		rep.Attempted++
		if res.errs[i] != nil {
			rep.fail("cold request %d: %v", i, res.errs[i])
			continue
		}
		s, err := checkResponse(body, reqs[i].graph())
		if err != nil {
			rep.fail("cold request %d: %v", i, err)
			continue
		}
		lb, err := locmps.MakespanLowerBound(reqs[i].graph(), reqs[i].Req.Cluster)
		if err != nil {
			rep.fail("cold request %d: lower bound: %v", i, err)
			continue
		}
		makespans[i] = s.Makespan
		ratios = append(ratios, s.Makespan/lb)
	}
	return makespans, ratios
}

func runCold(o opts) (*report, error) {
	env, setupS, err := repeatSetup(setupReps, func() (*coldEnv, error) { return coldSetup(o.Seed, nil) },
		func(e *coldEnv) { e.n.close() })
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	need := samplesFor(coldTail)
	res := coldLoop(env.n, env.reqs, o.Seconds, coldMinReqs, heap)
	if err := env.n.close(); err != nil {
		return nil, err
	}
	peak := heap.finish()
	rep := &report{}
	_, ratios := checkCold(rep, env.reqs, res)
	ratios = ratios[:min(len(ratios), coldMinReqs)]
	// One client waits for each answer, so a stall delays one request and
	// the p90 over the whole run is the steadier figure; the windowed one
	// is printed for comparison.
	tail, beyond, ok := quantile(res.lat, coldTail)
	if !ok || len(res.lat) < coldMinReqs {
		return nil, fmt.Errorf("cold: %d requests in %v, need %d", len(res.lat), maxWall, coldMinReqs)
	}
	windowed, windows, _ := windowQuantile(res.lat, coldTail)
	n := len(res.lat)
	rep.add("latency_p50_ms", "ms", median(res.lat), fmt.Sprintf("n=%d", n))
	rep.add("latency_tail_ms", "ms", tail, fmt.Sprintf("p90, n=%d, %d beyond", n, beyond))
	rate, rateWindows, _ := windowRate(res.lat, need)
	rep.add("throughput_per_s", "1/s", rate, fmt.Sprintf("schedules_per_s of one closed-loop client: median over %d windows of %d requests", rateWindows, need))
	quality, err := stats.GeoMean(ratios)
	if err != nil {
		return nil, fmt.Errorf("cold makespan_vs_lb: %w", err)
	}
	rep.add("makespan_vs_lb", "ratio", quality, fmt.Sprintf("geomean over the first %d schedules", len(ratios)))
	rep.add("peak_heap_mb", "MB", peak, fmt.Sprintf("median peak live heap of %d blocks of %d requests after the first %d", heapBlocks, heapBlockReqs, heapWarmReqs))
	rep.add("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (%d requests generated, node started)", setupReps, coldPool))
	rep.info("latency_p90_ms", "ms", tail, fmt.Sprintf("n=%d, %d beyond", n, beyond))
	rep.info("latency_p90_windowed_ms", "ms", windowed, fmt.Sprintf("median p90 of %d windows of %d requests", windows, need))
	rep.info("schedules_per_s", "1/s", float64(n-rep.Failed)/res.wall.Seconds(), "over the whole run")
	return rep, nil
}

func traceCold(o opts) (*report, error) {
	rep := &report{}
	seg := o.Seconds / 4
	envA, err := coldSetup(o.Seed, nil)
	if err != nil {
		return nil, err
	}
	reqs := envA.reqs
	plain := coldLoop(envA.n, reqs, seg, 1, nil)
	if err := envA.n.close(); err != nil {
		return nil, err
	}
	checkCold(rep, reqs, plain)

	tr := newTracer()
	nB, err := startNode(tr)
	if err != nil {
		return nil, err
	}
	before := nB.srv.Stats()
	traced := coldLoop(nB, reqs, seg, 1, nil)
	after := nB.srv.Stats()
	searchWorkers := nB.svc.Stats().SearchWorkers
	if err := nB.close(); err != nil {
		return nil, err
	}
	makespans, _ := checkCold(rep, reqs, traced)
	m := len(traced.lat)
	var bytesIn, bytesOut int64
	bodies := make([][]byte, m)
	for i := 0; i < m; i++ {
		bodies[i] = reqs[i].Body
		bytesIn += int64(len(reqs[i].Body))
		bytesOut += int64(len(traced.bodies[i]))
	}

	rsvc := serve.New(serve.Config{SearchWorkers: searchWorkers})
	nrep, violations, err := replayPass(tr, rsvc, bodies, time.Now().Add(dur(seg)))
	rsvc.Close()
	if err != nil {
		return nil, err
	}
	ms1, agg, err := enginePass(tr, reqs[:nrep], searchWorkers, time.Now().Add(dur(seg)), func(i int) float64 { return makespans[i] })
	if err != nil {
		return nil, err
	}
	k := min(3, len(ms1))
	ms2, _, err := enginePass(nil, reqs[:k], searchWorkers, time.Now().Add(time.Hour), func(int) float64 { return 0 })
	if err != nil {
		return nil, err
	}

	l := newLayers()
	spans := tr.snapshot()
	httpLayers(l, rep, spans, nrep, func(int) bool { return true })
	nodeLayers(l, before, after, bytesIn, bytesOut, m)
	agg.fill(l)
	l["audit.violations"] = float64(violations)
	l["trace.overhead_pct"] = overheadPct(plain.lat, traced.lat)
	l.into(rep)
	rep.info("core.searches", "count", float64(agg.n), "engine replays behind the core.* figures")
	rep.Determinism = append(determinism(ms1[:k], ms2),
		"service.*, httpserve.* counts come from one live node and depend on request timing: not compared")
	rep.Spans = spans
	return rep, nil
}

// overheadPct compares the median latency of a traced pass with that of a
// plain pass over the same leading requests.
func overheadPct(plain, traced []float64) float64 {
	k := min(len(plain), len(traced))
	if k == 0 {
		return 0
	}
	p := median(plain[:k])
	return 100 * (median(traced[:k]) - p) / p
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }
