package main

import (
	"fmt"
	"math"
	"time"

	"locmps"
	"locmps/internal/model"
	"locmps/internal/stats"
	"locmps/internal/stream"
)

// streamPrefix is how many streams the heap peak and the end-state quality
// cover: a fixed amount of work, whatever the speed.
const streamPrefix = 24

// streamPool is how many stream scenarios a set-up prepares; a run ends
// early if it exhausts them.
const streamPool = 100

// event is one processed stream event instant as the benchmark saw it.
type event struct {
	Stream, Index int
	Rec           stream.EventRecord
	Step          time.Duration // the Step call
	Audit         time.Duration // the outside audit (traced pass only)
}

// replans reports whether the event ran a placement search: a real delta
// (arrival, failure, resize) with jobs active. Fast paths and retire-only
// remaps do not replan.
func (e event) replans() bool {
	return !e.Rec.FastPath && !e.Rec.Remap && e.Rec.ActiveJobs > 0
}

func (e event) total() time.Duration { return e.Step + e.Audit }

// streamResult is one pass over consecutive scenarios.
type streamResult struct {
	events  []event
	ratios  []float64 // end-state makespan / arrival-aware lower bound, passing streams among the first streamPrefix
	streams int
}

// streamPass replays scenarios in order until `seconds` have passed and
// at least minReplans replanning events were seen (capped at maxWall); a
// started stream always runs to its end. The heap, when measured, is
// sampled one block per stream over the first streamPrefix streams. With outsideAudit the scenarios
// run with SkipAudit and the benchmark audits each new plan itself, timed
// separately, with tr recording spans.
func streamPass(rep *report, cfgs []stream.Config, seconds float64, minReplans, minStreams int, outsideAudit bool, tr *tracer, heap *heapPeak) (streamResult, error) {
	var res streamResult
	start := time.Now()
	deadline := start.Add(dur(seconds))
	replans := 0
	for j, cfg := range cfgs {
		now := time.Now()
		if now.After(start.Add(maxWall)) || (now.After(deadline) && replans >= minReplans && res.streams >= minStreams) {
			break
		}
		cfg.SkipAudit = outsideAudit
		sim, err := stream.New(cfg)
		if err != nil {
			return res, err
		}
		for idx := 0; ; idx++ {
			root := tr.newID()
			t0 := time.Now()
			rec, ok, err := sim.Step()
			t1 := time.Now()
			if !ok && err == nil {
				break
			}
			rep.Attempted++
			if err != nil {
				rep.fail("stream %d event %d: %v", j, idx, err)
				break
			}
			ev := event{Stream: j, Index: idx, Rec: rec, Step: t1.Sub(t0)}
			t3 := t1
			if outsideAudit && !rec.FastPath && sim.Plan() != nil {
				id := tr.newID()
				aerr := checkSchedule(sim.Graph(), sim.Plan())
				t3 = time.Now()
				tr.add(id, root, int64(len(res.events)), "audit.check", t1, t3)
				ev.Audit = t3.Sub(t1)
				if aerr != nil {
					rep.fail("stream %d event %d: %v", j, idx, aerr)
				}
			}
			if tr != nil {
				tr.add(tr.newID(), root, int64(len(res.events)), "stream.step", t0, t1)
				tr.add(root, 0, int64(len(res.events)), "stream.event", t0, t3)
			}
			if ev.replans() {
				replans++
			}
			res.events = append(res.events, ev)
		}
		out, err := sim.Result()
		sim.Close()
		res.streams++
		heap.cutAt(res.streams, 1, streamPrefix)
		rep.Attempted++
		if err != nil {
			rep.fail("stream %d result: %v", j, err)
			continue
		}
		if out.End == nil {
			rep.fail("stream %d: no end state", j)
			continue
		}
		// The end state is what the stream actually executed. Every plan
		// Step emitted was audited above (inside Step, or outside with
		// SkipAudit), but an emitted plan may place a task before the event
		// time without the audit noticing, so the end state is audited too,
		// and no job may finish sooner after its arrival than its own lower
		// bound allows.
		good := true
		if err := checkSchedule(out.EndGraph, out.End); err != nil {
			rep.fail("stream %d end state: %v", j, err)
			good = false
		}
		lb, err := locmps.MakespanLowerBound(out.EndGraph, cfg.Cluster)
		if err != nil {
			return res, err
		}
		for i, job := range cfg.Jobs {
			jlb, err := locmps.MakespanLowerBound(job.TG, cfg.Cluster)
			if err != nil {
				return res, err
			}
			lb = math.Max(lb, job.Arrival+jlb)
			rep.Attempted++
			if resp := out.JobCompletion[i] - job.Arrival; resp < jlb*(1-1e-9) {
				rep.fail("stream %d job %d: completed %.6g after arrival, under its lower bound %.6g", j, i, resp, jlb)
				good = false
			}
		}
		if good && res.streams <= streamPrefix {
			res.ratios = append(res.ratios, out.End.Makespan/lb)
		}
	}
	return res, nil
}

func streamSetup(seed int64) ([]stream.Config, error) {
	cfgs := make([]stream.Config, streamPool)
	for j := range cfgs {
		var err error
		if cfgs[j], err = streamScenario(seed, j); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// replanMs lists the Step latency (audit included when it ran inside
// Step) of every replanning event, plus the outside audit when there was
// one.
func replanMs(evs []event) []float64 {
	var out []float64
	for _, e := range evs {
		if e.replans() {
			out = append(out, ms(e.total()))
		}
	}
	return out
}

func runStream(o opts) (*report, error) {
	cfgs, setupS, err := repeatSetup(setupReps, func() ([]stream.Config, error) { return streamSetup(o.Seed) }, func([]stream.Config) {})
	if err != nil {
		return nil, err
	}
	heap := startHeapPeak()
	rep := &report{}
	need := samplesFor(coldTail)
	res, err := streamPass(rep, cfgs, o.Seconds, need, streamPrefix, false, nil, heap)
	if err != nil {
		return nil, err
	}
	peak := heap.finish()
	lat := replanMs(res.events)
	tail, windows, ok := windowQuantile(lat, coldTail)
	if !ok || len(lat) < need {
		return nil, fmt.Errorf("stream: %d replanning events, need %d", len(lat), need)
	}
	var stepTotal time.Duration
	perStream := map[int]time.Duration{}
	perStreamN := map[int]int{}
	for _, e := range res.events {
		stepTotal += e.Step
		perStream[e.Stream] += e.Step
		perStreamN[e.Stream]++
	}
	eps := float64(len(res.events)) / stepTotal.Seconds()
	var rates []float64
	for j, d := range perStream {
		rates = append(rates, float64(perStreamN[j])/d.Seconds())
	}
	rep.add("latency_p50_ms", "ms", median(lat), fmt.Sprintf("replanning events only, n=%d", len(lat)))
	rep.add("latency_tail_ms", "ms", tail, fmt.Sprintf("median p90 of %d windows of %d replanning events, %d beyond each", windows, need, minBeyond))
	rep.add("throughput_per_s", "1/s", median(rates), fmt.Sprintf("events_per_s: median over %d streams of events / Step time", len(rates)))
	quality, err := stats.GeoMean(res.ratios)
	if err != nil {
		return nil, fmt.Errorf("stream makespan_vs_lb: %w", err)
	}
	rep.add("makespan_vs_lb", "ratio", quality, fmt.Sprintf("geomean over the first %d streams of end-state makespan / max(batch bound, max over jobs of arrival + job bound)", len(res.ratios)))
	rep.add("peak_heap_mb", "MB", peak, fmt.Sprintf("median of the peak live heap of each of the first %d streams", streamPrefix))
	rep.add("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (%d scenarios generated)", setupReps, streamPool))
	p90, beyond, _ := quantile(lat, coldTail)
	rep.info("latency_p90_ms", "ms", p90, fmt.Sprintf("over all %d replanning events, %d beyond", len(lat), beyond))
	rep.info("events_per_s", "1/s", eps, fmt.Sprintf("over all %d events", len(res.events)))
	return rep, nil
}

func traceStream(o opts) (*report, error) {
	rep := &report{}
	cfgs, err := streamSetup(o.Seed)
	if err != nil {
		return nil, err
	}
	seg := o.Seconds / 3
	plain, err := streamPass(rep, cfgs, seg, 1, 1, false, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := streamPass(rep, cfgs[:plain.streams], seg, 1, 1, true, tr, nil)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	l := newLayers()
	var agg coreAgg
	var all, search, fast, remap, audits time.Duration
	var nAudit, nFast, nRemap int
	var active []float64
	for _, e := range traced.events {
		all += e.total()
		audits += e.Audit
		if e.Audit > 0 {
			nAudit++
		}
		active = append(active, float64(e.Rec.ActiveTasks))
		switch {
		case e.Rec.FastPath:
			fast += e.Step
			nFast++
		case e.Rec.Remap:
			remap += e.Step
			nRemap++
		case e.replans():
			search += e.Step
			agg.add(e.Rec.Stats.Metrics(), e.Rec.Elapsed)
		}
	}
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(all)) }
	ns := float64(traced.streams)
	l["stream.search_step_pct"] = pct(search)
	l["stream.fast_step_pct"] = pct(fast)
	l["stream.remap_step_pct"] = pct(remap)
	l["stream.searches"] = float64(agg.n) / ns
	l["stream.fast_paths"] = float64(nFast) / ns
	l["stream.remaps"] = float64(nRemap) / ns
	l["stream.fast_path_ratio"] = ratio(float64(nFast), float64(len(traced.events)))
	l["stream.active_tasks_p50"] = median(active)
	agg.fill(l)
	l["audit.check_ms"] = ratio(ms(audits), float64(nAudit))
	l["audit.violations"] = float64(rep.Failed)
	l["trace.overhead_pct"] = overheadPct(replanMs(plain.events), replanMs(traced.events))
	self := selfTimes(spans)
	l["trace.unexplained_pct"] = 100 * ratio(float64(self["stream.event"].Self), float64(self["stream.event"].Total))
	l.into(rep)

	rep.info("stream.search_step_ms", "ms", ratio(ms(search), float64(agg.n)), "mean Step of a replanning event, audit split out")
	rep.info("stream.fast_step_ms", "ms", ratio(ms(fast), float64(nFast)), "")
	rep.info("stream.remap_step_ms", "ms", ratio(ms(remap), float64(nRemap)), "")
	rep.info("stream.self_ms", "ms", ratio(ms(search)-ms(agg.time), float64(agg.n)), "replanning Step minus its search (EventRecord.Elapsed)")
	rep.info("streams", "count", ns, "")
	rep.Determinism = streamDeterminism(plain.events, traced.events)
	rep.Spans = spans
	return rep, nil
}

// streamDeterminism compares the per-search counts and the event kinds of
// the plain and traced passes over the events both reached.
func streamDeterminism(a, b []event) []string {
	n := min(len(a), len(b))
	var ma, mb []model.RunMetrics
	kinds := "exact"
	for i := 0; i < n; i++ {
		ea, eb := a[i], b[i]
		if ea.Stream != eb.Stream || ea.Index != eb.Index || ea.Rec.FastPath != eb.Rec.FastPath ||
			ea.Rec.Remap != eb.Rec.Remap || ea.Rec.ActiveTasks != eb.Rec.ActiveTasks {
			kinds = "VARIES"
		}
		if ea.replans() && eb.replans() {
			ma = append(ma, ea.Rec.Stats.Metrics())
			mb = append(mb, eb.Rec.Stats.Metrics())
		}
	}
	return append(determinism(ma, mb),
		fmt.Sprintf("%-36s %s over %d events", "stream.searches/fast_paths/remaps", kinds, n))
}
