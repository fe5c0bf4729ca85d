package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"locmps"
	"locmps/internal/audit"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/serve"
	"locmps/internal/serve/httpserve"
)

// layers holds one traced run's per-layer figures. Every declared metric
// starts at 0: a layer the workload never reaches (HTTP on stream, the
// stream simulator on cold and zipf) reports a zero share or count.
type layers map[string]float64

func newLayers() layers {
	l := layers{}
	for _, d := range perLayer {
		l[d.Name] = 0
	}
	return l
}

// into moves the figures into the report in declared order.
func (l layers) into(r *report) {
	for _, d := range perLayer {
		r.add(d.Name, d.Unit, l[d.Name], "")
	}
}

// coreAgg sums the search-layer accounting of LoC-MPS searches.
type coreAgg struct {
	n    int
	sum  model.RunMetrics
	time time.Duration
}

func (c *coreAgg) add(m model.RunMetrics, d time.Duration) {
	c.n++
	c.time += d
	s := &c.sum
	s.OuterIterations += m.OuterIterations
	s.LookAheadSteps += m.LookAheadSteps
	s.LoCBSRuns += m.LoCBSRuns
	s.CacheHits += m.CacheHits
	s.CacheMisses += m.CacheMisses
	s.SpeculativeRuns += m.SpeculativeRuns
	s.SpeculativeWaste += m.SpeculativeWaste
	s.ReplayedTasks += m.ReplayedTasks
	s.ResumedRuns += m.ResumedRuns
	s.RollbackDepth += m.RollbackDepth
	s.PrunedRuns += m.PrunedRuns
	s.ProbeFanouts += m.ProbeFanouts
	s.ProbeSlots += m.ProbeSlots
}

// fill reports per-search means and the ratios over the summed counts.
func (c *coreAgg) fill(l layers) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	s := c.sum
	l["core.search_ms"] = ms(c.time) / n
	l["core.outer_iterations"] = float64(s.OuterIterations) / n
	l["core.lookahead_steps"] = float64(s.LookAheadSteps) / n
	l["core.locbs_runs"] = float64(s.LoCBSRuns) / n
	l["core.ns_per_locbs_run"] = ratio(float64(c.time.Nanoseconds()), float64(s.LoCBSRuns))
	l["core.memo_hit_ratio"] = s.CacheHitRate()
	l["core.replay_ratio"] = s.ReplayRate()
	l["core.speculative_waste_ratio"] = s.SpeculationWasteRate()
	l["core.pruned_runs"] = float64(s.PrunedRuns) / n
	l["core.probe_fanouts"] = float64(s.ProbeFanouts) / n
	l["core.probe_slots"] = float64(s.ProbeSlots) / n
}

// countFields are the search counts compared by the determinism report.
// The resume counts (and the replay ratio derived from them) are known to
// depend on goroutine scheduling at GOMAXPROCS >= 2: the prefix-resume
// trace lives on pooled scratch, so which run resumes depends on which
// scratch a concurrent search draws. They are flagged whatever one run
// happens to observe.
var countFields = []struct {
	name      string
	get       func(model.RunMetrics) int
	knownVary bool
}{
	{"core.outer_iterations", func(m model.RunMetrics) int { return m.OuterIterations }, false},
	{"core.lookahead_steps", func(m model.RunMetrics) int { return m.LookAheadSteps }, false},
	{"core.locbs_runs", func(m model.RunMetrics) int { return m.LoCBSRuns }, false},
	{"core.memo hits", func(m model.RunMetrics) int { return m.CacheHits }, false},
	{"core.memo misses", func(m model.RunMetrics) int { return m.CacheMisses }, false},
	{"core.speculative waste", func(m model.RunMetrics) int { return m.SpeculativeWaste }, false},
	{"core.pruned_runs", func(m model.RunMetrics) int { return m.PrunedRuns }, false},
	{"core.probe_fanouts", func(m model.RunMetrics) int { return m.ProbeFanouts }, false},
	{"core.probe_slots", func(m model.RunMetrics) int { return m.ProbeSlots }, false},
	{"core.replayed tasks (replay_ratio)", func(m model.RunMetrics) int { return m.ReplayedTasks }, true},
	{"core.resumed runs (replay_ratio)", func(m model.RunMetrics) int { return m.ResumedRuns }, true},
	{"core.rollback depth (replay_ratio)", func(m model.RunMetrics) int { return m.RollbackDepth }, true},
}

// determinism compares two passes of per-search counts over the same
// inputs and classifies each count.
func determinism(a, b []model.RunMetrics) []string {
	n := min(len(a), len(b))
	var out []string
	for _, f := range countFields {
		same := true
		for i := 0; i < n; i++ {
			if f.get(a[i]) != f.get(b[i]) {
				same = false
			}
		}
		verdict := "exact"
		if !same {
			verdict = "VARIES"
		}
		verdict = fmt.Sprintf("%s over %d searches", verdict, n)
		if f.knownVary {
			verdict += "; flagged NOT EXACT whatever this run saw: resume work depends on goroutine scheduling at GOMAXPROCS>=2 (resume state on pooled scratch, see ROADMAP.md)"
		}
		out = append(out, fmt.Sprintf("%-36s %s", f.name, verdict))
	}
	return out
}

// engineFor builds the scheduler the service would run for req: the same
// options and the service's SearchWorkers.
func engineFor(req serve.Request, searchWorkers int) (locmps.Scheduler, error) {
	if o := req.Options; o.Algorithm != "" && o.Algorithm != "LoC-MPS" || o.Dual || o.LookAheadDepth != 0 || o.TopFraction != 0 || o.BlockBytes != 0 || o.MaxIterations != 0 {
		return nil, fmt.Errorf("engineFor: only default LoC-MPS options are replayed, got %+v", o)
	}
	return locmps.NewLoCMPSParallel(searchWorkers), nil
}

// enginePass runs requests through the engine the service would build,
// collecting the search accounting. It stops at the deadline (after at
// least one request) and cross-checks each schedule against the one the
// node returned.
func enginePass(tr *tracer, reqs []request, searchWorkers int, deadline time.Time, want func(i int) float64) ([]model.RunMetrics, coreAgg, error) {
	var agg coreAgg
	var ms []model.RunMetrics
	for i, rq := range reqs {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		eng, err := engineFor(rq.Req, searchWorkers)
		if err != nil {
			return nil, agg, err
		}
		id := tr.newID()
		start := time.Now()
		s, err := eng.Schedule(rq.graph(), rq.Req.Cluster)
		end := time.Now()
		tr.add(id, 0, int64(i), "core.search", start, end)
		if err != nil {
			return nil, agg, err
		}
		m, _ := locmps.SearchMetrics(eng)
		agg.add(m, end.Sub(start))
		ms = append(ms, m)
		if w := want(i); w != 0 && w != s.Makespan {
			return nil, agg, fmt.Errorf("request %d: engine makespan %v differs from the node's %v", i, s.Makespan, w)
		}
	}
	return ms, agg, nil
}

// replayPass pushes a request sequence through the layers' public calls in
// process, one root span per request: json.Unmarshal, ToRequest,
// Fingerprint, Service.ScheduleContext, audit.Check and the response
// encode (WireFromSchedule plus json.Marshal). The audit runs on the first
// request of each fingerprint only: repeats get the same schedule, and
// auditing every hit would let the benchmark's own check dominate the
// replay. It stops at the deadline (after at least one request). Audit
// violations are counted, not fatal.
func replayPass(tr *tracer, svc *serve.Service, bodies [][]byte, deadline time.Time) (n, violations int, err error) {
	ctx := context.Background()
	audited := map[serve.Key]bool{}
	for i, body := range bodies {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		req := int64(i)
		root := tr.newID()
		start := time.Now()
		var wr serve.WireRequest
		var rq serve.Request
		var s *schedule.Schedule
		var key serve.Key
		var rep *audit.Report
		steps := []struct {
			name string
			f    func() error
		}{
			{"wire.json_decode", func() error { return json.Unmarshal(body, &wr) }},
			{"wire.to_request", func() (err error) { rq, _, err = wr.ToRequest(); return err }},
			{"fingerprint", func() (err error) { key, err = rq.Fingerprint(); return err }},
			{"service.schedule", func() (err error) { s, err = svc.ScheduleContext(ctx, rq); return err }},
			{"audit.check", func() error {
				rep = audit.Check(rq.Graph, s, auditOpts)
				audited[key] = true
				return nil
			}},
			{"wire.encode", func() error {
				_, err := json.Marshal(serve.WireResponse{Schema: serve.WireVersion, Schedule: *serve.WireFromSchedule(s, rq.Graph.M())})
				return err
			}},
		}
		for _, st := range steps {
			if st.name == "audit.check" && audited[key] {
				continue
			}
			if err := tr.timed(root, req, st.name, st.f); err != nil {
				return n, violations, fmt.Errorf("replay request %d: %s: %w", i, st.name, err)
			}
		}
		tr.add(root, 0, req, "replay.request", start, time.Now())
		if rep != nil {
			violations += len(rep.Violations)
		}
		n++
	}
	return n, violations, nil
}

// httpLayers fills the HTTP-side per-layer figures of a traced run from
// the spans of the traced HTTP segment (client.request, httpserve.handler)
// and of the in-process replay of the same requests, joined by request
// id over the first n requests. onServicePath(i) tells whether the node
// ran the service and the encoder for request i (a response-cache hit
// answers after the fingerprint). Shares are of the summed client round
// trips; what the handler spent beyond the replayed on-path layers is the
// unexplained share.
func httpLayers(l layers, r *report, spans []span, n int, onServicePath func(i int) bool) {
	per := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		if s.Req >= int64(n) {
			continue
		}
		m := per[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			per[s.Req] = m
		}
		m[s.Name] += s.dur()
	}
	var client, handler time.Duration
	onPath := map[string]time.Duration{}
	all := map[string]time.Duration{}
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		m := per[int64(i)]
		client += m["client.request"]
		handler += m["httpserve.handler"]
		for _, name := range []string{"wire.json_decode", "wire.to_request", "fingerprint", "service.schedule", "wire.encode", "audit.check"} {
			d, ok := m[name]
			if !ok {
				continue
			}
			all[name] += d
			counts[name]++
			svcStage := name == "service.schedule" || name == "wire.encode"
			if name != "audit.check" && (!svcStage || onServicePath(i)) {
				onPath[name] += d
			}
		}
	}
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(client)) }
	l["httpserve.handler_pct"] = pct(handler)
	l["httpserve.transport_pct"] = pct(client - handler)
	l["wire.json_decode_pct"] = pct(onPath["wire.json_decode"])
	l["wire.to_request_pct"] = pct(onPath["wire.to_request"])
	l["wire.encode_pct"] = pct(onPath["wire.encode"])
	l["fingerprint.pct"] = pct(onPath["fingerprint"])
	l["service.schedule_pct"] = pct(onPath["service.schedule"])
	explained := time.Duration(0)
	for _, d := range onPath {
		explained += d
	}
	l["trace.unexplained_pct"] = pct(handler - explained)
	l["audit.check_ms"] = ratio(ms(all["audit.check"]), float64(counts["audit.check"]))

	nf := float64(n)
	r.info("httpserve.handler_ms", "ms", ms(handler)/nf, "mean per request, wrapped Server.Handler()")
	r.info("httpserve.transport_ms", "ms", ms(client-handler)/nf, "client round trip minus handler")
	for _, name := range []string{"wire.json_decode", "wire.to_request", "fingerprint", "service.schedule", "wire.encode"} {
		label := name + "_ms"
		if name == "fingerprint" {
			label = "fingerprint.ms"
		}
		r.info(label, "ms", ratio(ms(all[name]), float64(counts[name])), "mean per replayed call (in-process replay)")
	}
	r.info("replayed_requests", "count", nf, "requests joined between the traced HTTP segment and the replay")
}

// nodeLayers fills the node-counter figures from the difference of two
// stats snapshots taken around the traced segment.
func nodeLayers(l layers, before, after httpserve.NodeStats, bytesIn, bytesOut int64, n int) {
	served := float64(after.Served - before.Served)
	l["httpserve.resp_hit_ratio"] = ratio(float64(after.RespCacheHits-before.RespCacheHits), served)
	l["httpserve.shed"] = float64(after.Shed - before.Shed)
	l["httpserve.bytes_in_per_req"] = ratio(float64(bytesIn), float64(n))
	l["httpserve.bytes_out_per_req"] = ratio(float64(bytesOut), float64(n))
	l["service.hits"] = float64(after.CacheHits - before.CacheHits)
	l["service.coalesced"] = float64(after.Coalesced - before.Coalesced)
	l["service.scheduled"] = float64(after.Scheduled - before.Scheduled)
	l["service.rejected"] = float64(after.Rejected - before.Rejected)
	l["service.coalesce_ratio"] = ratio(l["service.coalesced"], float64(after.Requests-before.Requests))
	ssh := float64(after.SharedStateHits - before.SharedStateHits)
	l["service.shared_state_hit_ratio"] = ratio(ssh, ssh+float64(after.SharedStateMisses-before.SharedStateMisses))
}
