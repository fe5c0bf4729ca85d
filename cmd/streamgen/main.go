// Command streamgen replays open-loop streaming scenarios through the
// arrival-driven rolling-horizon rescheduler (internal/stream) and
// records replay-rate and reschedule-latency SLOs in BENCH_stream.json,
// tracked across PRs alongside the scheduler-kernel numbers in
// BENCH_locmps.json and the serving numbers in BENCH_serve.json.
//
// Four cases:
//
//   - StreamSteadyPoisson: a steady Poisson arrival stream replayed in
//     incremental mode (pinned worker, table concatenation, warm memo)
//     and again in scratch mode (reference configuration on freshly
//     rebuilt unions). Both must produce bit-identical end-state
//     schedules; the headline figure is the search-time speedup, gated
//     >= 2x by cmd/benchjson -gate.
//   - StreamT0Batch: the same jobs with every arrival forced to t=0 —
//     the streamed end state must equal batch-scheduling the union
//     graph directly, bit for bit.
//   - StreamChurnFailures: a bursty stream with mid-run task failures
//     and cluster shrink/grow, every event's plan audit-checked with
//     full redistribution accounting.
//   - StreamUSLSweep: the arrival rate swept across a 16x range; the
//     achieved replay rate vs mean active-job load is fit to the
//     Universal Scalability Law (contention alpha, coherency beta,
//     saturation point).
//
// The file keeps a "baseline" (written once, preserved on reruns) and a
// "current" snapshot, the same convention as the sibling BENCH files;
// delete the file to re-baseline. The schema, the baseline bookkeeping and
// the gate's checks live in internal/benchgate. With -smoke the tool writes nothing
// and instead asserts the streaming invariants on small scenarios —
// drains to an audited end state, replay-rate floor, bit-identical
// incremental-vs-scratch end states, t=0 batch equivalence, SWF replay
// — sized to stay fast under -race.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"locmps/internal/audit"
	"locmps/internal/benchgate"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/stream"
)

// Result is one case's snapshot in the BENCH_stream.json schema.
type Result = benchgate.StreamResult

func main() {
	path := flag.String("o", "BENCH_stream.json", "output file")
	smoke := flag.Bool("smoke", false, "run fast invariant checks only; write no file")
	reps := flag.Int("reps", 3, "repetitions per timed replay (best kept)")
	flag.Parse()
	var err error
	if *smoke {
		err = smokeChecks()
	} else {
		err = run(*path, *reps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamgen:", err)
		os.Exit(1)
	}
}

// steadyCluster hosts every scenario; the resize events in the churn
// case shrink inside it. 64 processors puts the workload where the
// placement runs — whose cost scales with P — dominate the shared
// critical-path analytics, so the incremental accelerations (memo,
// resume, warm redistribution cache) show as wall-clock, not just as
// saved LoCBS runs.
var steadyCluster = model.Cluster{P: 64, Bandwidth: 12.5e6, Overlap: true}

// steadyJobs is the steady-state Poisson workload: enough overlap that
// the rolling horizon holds several jobs at once, enough tasks per job
// that searches do real work.
func steadyJobs() ([]stream.Job, error) {
	return stream.PoissonJobs(stream.PoissonOpts{
		Jobs: 10, Rate: 0.03, MinTasks: 14, MaxTasks: 20, Seed: 7,
	})
}

// churnScenario is the failure/shrink/grow stress: bursty arrivals,
// two failure probes per job, a shrink to half capacity and a grow
// back.
func churnScenario() (stream.Config, error) {
	jobs, err := stream.PoissonJobs(stream.PoissonOpts{
		Jobs: 8, Rate: 0.03, Burst: 3, BurstSize: 2,
		MinTasks: 6, MaxTasks: 10, Seed: 11,
	})
	if err != nil {
		return stream.Config{}, err
	}
	cfg := stream.Config{Cluster: steadyCluster, Jobs: jobs}
	for i, j := range jobs {
		cfg.Failures = append(cfg.Failures,
			stream.Fail{Time: j.Arrival + 10, Job: i},
			stream.Fail{Time: j.Arrival + 40, Job: i})
	}
	cfg.Resizes = []stream.Resize{
		{Time: jobs[2].Arrival + 5, Procs: steadyCluster.P / 2},
		{Time: jobs[5].Arrival + 5, Procs: steadyCluster.P},
	}
	return cfg, nil
}

// replayReps replays cfg reps times, forcing a collection before each
// replay so GC debt accumulated by one repetition is not billed to the
// next one's search latencies.
func replayReps(cfg stream.Config, reps int) ([]*stream.Result, error) {
	out := make([]*stream.Result, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		res, err := stream.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// minSearchLats reduces repetitions to per-event minima: the replayed
// event sequence is deterministic, so event i is the same reschedule in
// every repetition and its fastest observation is the measurement (the
// loadgen best-of-reps convention, applied per event instead of per
// run). Returns the search events' latencies in event order.
func minSearchLats(results []*stream.Result) []time.Duration {
	var lats []time.Duration
	for i := range results[0].Events {
		e := results[0].Events[i]
		if e.FastPath || e.Remap {
			continue
		}
		min := e.Elapsed
		for _, r := range results[1:] {
			if r.Events[i].Elapsed < min {
				min = r.Events[i].Elapsed
			}
		}
		lats = append(lats, min)
	}
	return lats
}

func sumDurations(lats []time.Duration) time.Duration {
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	return total
}

// sameEnd reports whether two end states are bit-identical schedules
// over the same union graph.
func sameEnd(a, b *stream.Result) bool {
	if a.End == nil || b.End == nil {
		return false
	}
	return audit.DiffSchedules(a.EndGraph, a.End, b.End) == ""
}

func run(path string, reps int) error {
	out := benchgate.StreamFile{File: benchgate.New[Result]("Open-loop streaming scheduler benchmarks (Poisson arrivals, synthetic DAG jobs, seed 7/11). Baseline is preserved across runs; delete this file to re-baseline. speedup_x is incremental (pinned worker, concatenated tables) vs scratch (reference configuration, rebuilt unions) at bit-identical end states; timed replays keep the best of -reps repetitions.")}
	prev, _, err := benchgate.Read[benchgate.StreamFile](path)
	if err != nil {
		return err
	}

	if r, err := steadyCase(reps); err != nil {
		return fmt.Errorf("StreamSteadyPoisson: %w", err)
	} else {
		out.Current["StreamSteadyPoisson"] = r
		fmt.Printf("%-24s %4d events  %8.0f events/s  p50 %v p99 %v  speedup %.2fx (inc %v vs scratch %v)  bit-identical=%v\n",
			"StreamSteadyPoisson", r.Events, r.ReplayRateEPS,
			time.Duration(r.ReschedP50Ns), time.Duration(r.ReschedP99Ns),
			r.SpeedupX, time.Duration(r.IncrementalSearchNs), time.Duration(r.ScratchSearchNs),
			r.EndBitIdentical)
	}

	if r, err := t0Case(); err != nil {
		return fmt.Errorf("StreamT0Batch: %w", err)
	} else {
		out.Current["StreamT0Batch"] = r
		fmt.Printf("%-24s %4d events  makespan %.6g  t0_match=%v\n",
			"StreamT0Batch", r.Events, r.Makespan, r.T0Match)
	}

	if r, err := churnCase(); err != nil {
		return fmt.Errorf("StreamChurnFailures: %w", err)
	} else {
		out.Current["StreamChurnFailures"] = r
		fmt.Printf("%-24s %4d events  %d failures %d resizes %d replayed tasks  audit_clean=%v\n",
			"StreamChurnFailures", r.Events, r.Failures, r.Resizes, r.ReplayedTasks, r.AuditClean)
	}

	if r, err := uslCase(); err != nil {
		return fmt.Errorf("StreamUSLSweep: %w", err)
	} else {
		out.Current["StreamUSLSweep"] = r
		peak := "unbounded"
		if r.USLPeak > 0 {
			peak = fmt.Sprintf("%.1f jobs", r.USLPeak)
		}
		fmt.Printf("%-24s %d rate points  gamma %.1f events/s  alpha %.4f beta %.5f  peak %s\n",
			"StreamUSLSweep", len(r.Rates), r.USLGamma, r.USLAlpha, r.USLBeta, peak)
	}

	out.Update(prev.File, os.Stderr)
	return benchgate.Save(path, out)
}

// steadyCase measures the steady Poisson stream in both modes. The
// timed replays skip the per-plan audit (it is not rescheduling work
// and both modes would pay it equally); the bit-identity check between
// the two end states is the correctness evidence here, and the churn
// case audits every event.
func steadyCase(reps int) (Result, error) {
	// A generous GC target keeps collections out of the timed searches;
	// the per-replay runtime.GC() in replayReps bounds the heap anyway.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	jobs, err := steadyJobs()
	if err != nil {
		return Result{}, err
	}
	cfg := stream.Config{Cluster: steadyCluster, Jobs: jobs, SkipAudit: true}
	incs, err := replayReps(cfg, reps)
	if err != nil {
		return Result{}, err
	}
	cfg.Scratch = true
	scrs, err := replayReps(cfg, reps)
	if err != nil {
		return Result{}, fmt.Errorf("scratch replay: %w", err)
	}
	if !sameEnd(incs[0], scrs[0]) {
		return Result{}, fmt.Errorf("incremental and scratch end states differ — speedup would be meaningless")
	}
	inc := incs[0]
	incLats := minSearchLats(incs)
	scrLats := minSearchLats(scrs)
	incNs, scrNs := sumDurations(incLats), sumDurations(scrLats)
	wall := inc.Wall
	for _, r := range incs[1:] {
		if r.Wall < wall {
			wall = r.Wall
		}
	}
	r := Result{
		Jobs:                len(jobs),
		Events:              len(inc.Events),
		Searches:            inc.Searches,
		FastPaths:           inc.ResumedRuns,
		Remaps:              inc.Remaps,
		MaxActiveTasks:      inc.MaxActiveTasks,
		ReplayedTasks:       inc.Stats.ReplayedTasks,
		Makespan:            inc.End.Makespan,
		ReplayRateEPS:       float64(len(inc.Events)) / wall.Seconds(),
		ReschedP50Ns:        float64(benchgate.Quantile(incLats, 50)),
		ReschedP99Ns:        float64(benchgate.Quantile(incLats, 99)),
		IncrementalSearchNs: float64(incNs),
		ScratchSearchNs:     float64(scrNs),
		EndBitIdentical:     true,
	}
	if incNs > 0 {
		r.SpeedupX = float64(scrNs) / float64(incNs)
	}
	return r, nil
}

// t0Case forces every arrival to t=0 and checks the streamed end state
// against a direct batch schedule of the union graph.
func t0Case() (Result, error) {
	jobs, err := steadyJobs()
	if err != nil {
		return Result{}, err
	}
	for i := range jobs {
		jobs[i].Arrival = 0
	}
	res, err := stream.Run(stream.Config{Cluster: steadyCluster, Jobs: jobs})
	if err != nil {
		return Result{}, err
	}
	union, err := stream.UnionGraph(jobs)
	if err != nil {
		return Result{}, err
	}
	batch, err := core.New().Schedule(union, steadyCluster)
	if err != nil {
		return Result{}, err
	}
	if diff := audit.DiffSchedules(res.EndGraph, res.End, batch); diff != "" {
		return Result{}, fmt.Errorf("stream end state differs from batch: %s", diff)
	}
	return Result{
		Jobs:          len(jobs),
		Events:        len(res.Events),
		Makespan:      res.End.Makespan,
		ReplayRateEPS: float64(len(res.Events)) / res.Wall.Seconds(),
		T0Match:       true,
	}, nil
}

// churnCase replays the failure/shrink/grow scenario with the per-event
// audit on; stream.Run fails on the first unsound plan, so finishing at
// all is the audit-clean evidence.
func churnCase() (Result, error) {
	cfg, err := churnScenario()
	if err != nil {
		return Result{}, err
	}
	res, err := stream.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Jobs:           len(cfg.Jobs),
		Events:         len(res.Events),
		Searches:       res.Searches,
		FastPaths:      res.ResumedRuns,
		Remaps:         res.Remaps,
		MaxActiveTasks: res.MaxActiveTasks,
		ReplayedTasks:  res.Stats.ReplayedTasks,
		Makespan:       res.End.Makespan,
		ReplayRateEPS:  float64(len(res.Events)) / res.Wall.Seconds(),
		AuditClean:     true,
	}
	for _, e := range res.Events {
		r.Failures += e.Failures
		if e.Resized {
			r.Resizes++
		}
	}
	if r.Failures == 0 {
		return Result{}, fmt.Errorf("no failure probe landed — scenario lost its stress")
	}
	return r, nil
}

// uslCase sweeps the offered arrival rate across a 16x range and fits
// achieved replay rate vs mean active-job load to the USL. The fit can
// legitimately find no coherency limit on a small host; only degenerate
// inputs are errors.
func uslCase() (Result, error) {
	base := 0.01
	r := Result{}
	for _, mult := range []float64{1, 2, 4, 8, 16} {
		jobs, err := stream.PoissonJobs(stream.PoissonOpts{
			Jobs: 8, Rate: base * mult, MinTasks: 8, MaxTasks: 12, Seed: 7,
		})
		if err != nil {
			return Result{}, err
		}
		res, err := stream.Run(stream.Config{Cluster: steadyCluster, Jobs: jobs, SkipAudit: true})
		if err != nil {
			return Result{}, err
		}
		active := 0
		for _, e := range res.Events {
			active += e.ActiveJobs
		}
		r.Lambdas = append(r.Lambdas, base*mult)
		r.Loads = append(r.Loads, float64(active)/float64(len(res.Events)))
		r.Rates = append(r.Rates, float64(len(res.Events))/res.Wall.Seconds())
	}
	fit, err := stream.FitUSL(r.Loads, r.Rates)
	if err != nil {
		// A noisy sweep on a loaded host can defeat the least-squares
		// fit; the rate points are still the record.
		fmt.Fprintf(os.Stderr, "streamgen: warning: USL fit failed: %v\n", err)
		return r, nil
	}
	r.USLGamma, r.USLAlpha, r.USLBeta = fit.Gamma, fit.Alpha, fit.Beta
	if !math.IsInf(fit.Peak, 1) {
		r.USLPeak = fit.Peak
	}
	return r, nil
}

// smokeRateFloor is the minimum events/sec a small smoke replay must
// sustain; deliberately far below real capacity so only a hang or a
// pathological slowdown trips it, even under -race.
const smokeRateFloor = 5.0

// smokeSWF is a synthetic four-job trace in Standard Workload Format
// (fields: id submit wait run alloc cpu mem reqProcs reqTime ...).
const smokeSWF = `; streamgen smoke trace
1 0   0 60  2 -1 -1 2 60  -1 1 1 1 1 1 -1 -1 -1
2 15  0 90  4 -1 -1 4 90  -1 1 1 1 1 1 -1 -1 -1
3 40  0 45  8 -1 -1 8 45  -1 1 1 1 1 1 -1 -1 -1
4 70  0 120 4 -1 -1 4 120 -1 1 1 1 1 1 -1 -1 -1
`

// smokeChecks asserts the streaming invariants on scenarios sized for
// -race: the churn scenario drains audit-clean above the rate floor,
// incremental equals scratch bit for bit, a t=0 stream equals batch,
// and an SWF replay drains audit-clean.
func smokeChecks() error {
	jobs, err := stream.PoissonJobs(stream.PoissonOpts{
		Jobs: 5, Rate: 0.02, MinTasks: 4, MaxTasks: 7, Seed: 7,
	})
	if err != nil {
		return err
	}
	cfg := stream.Config{Cluster: steadyCluster, Jobs: jobs}
	cfg.Failures = []stream.Fail{{Time: jobs[1].Arrival + 10, Job: 1}, {Time: jobs[3].Arrival + 10, Job: 3}}
	cfg.Resizes = []stream.Resize{{Time: jobs[2].Arrival + 5, Procs: steadyCluster.P / 2}}

	inc, err := stream.Run(cfg)
	if err != nil {
		return fmt.Errorf("poisson replay: %w", err)
	}
	var errs []string
	if inc.End == nil {
		errs = append(errs, "poisson replay did not drain to an end state")
	}
	if rate := float64(len(inc.Events)) / inc.Wall.Seconds(); rate < smokeRateFloor {
		errs = append(errs, fmt.Sprintf("replay rate %.1f events/s below the %.0f floor", rate, smokeRateFloor))
	}
	if inc.ResumedRuns == 0 {
		errs = append(errs, "no empty-delta fast path taken — the deterministic-completion path is dead")
	}
	scfg := cfg
	scfg.Scratch = true
	scr, err := stream.Run(scfg)
	if err != nil {
		return fmt.Errorf("scratch replay: %w", err)
	}
	if !sameEnd(inc, scr) {
		errs = append(errs, "incremental and scratch end states differ")
	}

	t0 := append([]stream.Job(nil), jobs...)
	for i := range t0 {
		t0[i].Arrival = 0
	}
	t0res, err := stream.Run(stream.Config{Cluster: steadyCluster, Jobs: t0})
	if err != nil {
		return fmt.Errorf("t=0 replay: %w", err)
	}
	union, err := stream.UnionGraph(t0)
	if err != nil {
		return err
	}
	batch, err := core.New().Schedule(union, steadyCluster)
	if err != nil {
		return err
	}
	if diff := audit.DiffSchedules(t0res.EndGraph, t0res.End, batch); diff != "" {
		errs = append(errs, fmt.Sprintf("t=0 stream differs from batch: %s", diff))
	}

	swfJobs, err := stream.SWFJobs(strings.NewReader(smokeSWF), steadyCluster.P, stream.SWFOpts{
		MinTasks: 3, MaxTasks: 6, TimeScale: 0.5, Seed: 4,
	})
	if err != nil {
		return fmt.Errorf("SWF parse: %w", err)
	}
	swfRes, err := stream.Run(stream.Config{Cluster: steadyCluster, Jobs: swfJobs})
	if err != nil {
		return fmt.Errorf("SWF replay: %w", err)
	}
	if swfRes.End == nil || len(swfRes.JobCompletion) != len(swfJobs) {
		errs = append(errs, "SWF replay did not complete every job")
	}

	if len(errs) > 0 {
		return fmt.Errorf("smoke checks failed:\n  %s", strings.Join(errs, "\n  "))
	}
	fmt.Printf("smoke checks passed: poisson %d events (%d fast paths), scratch bit-identical, t=0 == batch, SWF %d jobs drained\n",
		len(inc.Events), inc.ResumedRuns, len(swfJobs))
	return nil
}
