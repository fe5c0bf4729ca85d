// Command benchjson runs the mid-scale scheduler benchmarks and records
// them in BENCH_locmps.json so the performance trajectory is tracked across
// PRs. Each entry holds ns/op, B/op, allocs/op, the scheduled makespan, the
// makespan ratio against the CPR baseline (a quality check: speedups must
// not change what is scheduled) and a search_stats snapshot of the LoC-MPS
// search layer (look-ahead steps, engine runs, allocation-memo hit rate,
// and resume accounting).
//
// The file keeps two snapshots: "baseline" (written once, preserved on
// every rerun) and "current" (refreshed each run), plus the derived
// speedups. Delete the file to re-baseline everything, or pass
// -rebaseline with a comma-separated list of case names to re-measure just
// those baselines using the reference scheduler (NewLoCMPSReference: memo
// and resume disabled), so the recorded speedup compares the
// optimized engine against the same engine with its accelerations off.
//
// A case whose baseline and current entries are byte-identical carries no
// information (its speedup is a vacuous 1.0x — the backfill of a case added
// after the baseline was first recorded); the tool warns about every such
// case so stale baselines do not masquerade as "no improvement".
//
// To suppress scheduler jitter each case is measured -reps times (default
// 3) and the fastest repetition is recorded, the same convention as
// benchstat's min column.
//
// Usage:
//
//	go run ./cmd/benchjson            # update BENCH_locmps.json in place
//	go run ./cmd/benchjson -o out.json
//	go run ./cmd/benchjson -cpuprofile cpu.pprof
//	go run ./cmd/benchjson -rebaseline BenchmarkLoCMPS100Tasks128Procs
//	go run ./cmd/benchjson -gate      # fail if ns/op regressed vs the committed file
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"locmps"
)

// Result is one benchmark snapshot.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Makespan is the scheduled makespan of the benchmark instance and
	// RatioVsCPR its ratio to CPR's makespan — both pure functions of the
	// input, so a change here means the optimization changed the schedule.
	Makespan   float64 `json:"makespan"`
	RatioVsCPR float64 `json:"makespan_ratio_vs_cpr"`
	// Search records what the LoC-MPS search layer did on one run of this
	// instance. Absent in snapshots recorded before the memo existed.
	Search *SearchSnapshot `json:"search_stats,omitempty"`
}

// SearchSnapshot is the recorded slice of locmps.RunMetrics.
type SearchSnapshot struct {
	OuterIterations int     `json:"outer_iterations"`
	LookAheadSteps  int     `json:"lookahead_steps"`
	LoCBSRuns       int     `json:"locbs_runs"`
	CacheHits       int     `json:"cache_hits"`
	CacheMisses     int     `json:"cache_misses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	// Incremental-placement accounting: placement runs that resumed from a
	// prefix checkpoint, task placements replayed from the checkpoint trace
	// and traced steps rolled back at the divergence point.
	ResumedRuns   int     `json:"resumed_runs"`
	ReplayedTasks int     `json:"replayed_tasks"`
	RollbackDepth int     `json:"rollback_depth"`
	ReplayRate    float64 `json:"replay_rate"`
}

func snapshot(m locmps.RunMetrics) *SearchSnapshot {
	return &SearchSnapshot{
		OuterIterations: m.OuterIterations,
		LookAheadSteps:  m.LookAheadSteps,
		LoCBSRuns:       m.LoCBSRuns,
		CacheHits:       m.CacheHits,
		CacheMisses:     m.CacheMisses,
		CacheHitRate:    m.CacheHitRate(),
		ResumedRuns:     m.ResumedRuns,
		ReplayedTasks:   m.ReplayedTasks,
		RollbackDepth:   m.RollbackDepth,
		ReplayRate:      m.ReplayRate(),
	}
}

// File is the on-disk layout of BENCH_locmps.json.
type File struct {
	Note string `json:"note,omitempty"`
	// CPUs is the logical core count of the host that recorded the current
	// snapshot. ns/op figures are only comparable between hosts of similar
	// speed, so readers (and the gate) need to know what they were taken on.
	CPUs     int                `json:"cpus,omitempty"`
	Baseline map[string]Result  `json:"baseline"`
	Current  map[string]Result  `json:"current"`
	SpeedupX map[string]Speedup `json:"speedup_vs_baseline"`
	// AnytimeTradeoff is the makespan-vs-latency curve of the anytime
	// search on each recorded case: one point per MaxIterations budget
	// (0 = unbounded), refreshed every run like "current".
	AnytimeTradeoff map[string][]TradeoffPoint `json:"anytime_tradeoff,omitempty"`
	// Portfolio holds the engine-portfolio cases: per-engine makespans on a
	// stress-shaped instance, their minimum, and the race's committed
	// result. Refreshed every run; -gate re-races each case and fails if
	// the portfolio exceeds the per-engine minimum or the winner drifts.
	Portfolio map[string]PortfolioEntry `json:"portfolio,omitempty"`
}

// PortfolioEntry is one portfolio bench case. The race has no deadline, so
// everything here is a deterministic function of the instance: the winner
// is the minimum-makespan engine with ties broken by the fixed portfolio
// order, and PortfolioMakespan == MinMakespan always (gated).
type PortfolioEntry struct {
	// EngineMakespans maps each raced engine to its schedule's makespan.
	EngineMakespans map[string]float64 `json:"engine_makespans"`
	// MinMakespan is the minimum over EngineMakespans.
	MinMakespan float64 `json:"min_makespan"`
	// PortfolioMakespan is the race winner's makespan.
	PortfolioMakespan float64 `json:"portfolio_makespan"`
	// Winner is the winning engine's registry name.
	Winner string `json:"winner"`
	// RaceNs is the wall-clock time of the whole race.
	RaceNs float64 `json:"race_ns"`
}

// TradeoffPoint is one budget point of the anytime makespan-vs-latency
// curve: what schedule quality a MaxIterations budget buys and what it
// costs in scheduling time.
type TradeoffPoint struct {
	// MaxIterations is the outer-round budget; 0 means unbounded (the
	// full search, Truncated always false).
	MaxIterations int     `json:"max_iterations"`
	Ns            float64 `json:"ns"`
	Makespan      float64 `json:"makespan"`
	// QualityRatio is makespan over the instance's certified lower bound
	// (>= 1; smaller is better).
	QualityRatio float64 `json:"quality_ratio"`
	Truncated    bool    `json:"truncated"`
}

// tradeoffBudgets are the MaxIterations points of the anytime curve, in
// measurement order; 0 (unbounded) last so the curve ends at the full
// search.
var tradeoffBudgets = []int{4, 16, 64, 256, 0}

// Speedup is baseline/current for the two tracked dimensions.
type Speedup struct {
	Ns     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
}

type benchCase struct {
	name         string
	tasks, procs int
}

var cases = []benchCase{
	{name: "BenchmarkLoCMPS30Tasks16Procs", tasks: 30, procs: 16},
	{name: "BenchmarkLoCMPS50Tasks64Procs", tasks: 50, procs: 64},
	{name: "BenchmarkLoCMPS100Tasks128Procs", tasks: 100, procs: 128},
}

// portfolioCases are the stress-shaped instances the engine portfolio is
// raced on — the cmd/stress topologies where different engines win
// (communication-heavy chains favor DATA, wide fork-joins favor TASK /
// M-HEFT, irregular DAGs favor the LoC-MPS family).
type portfolioCase struct {
	name  string
	shape string // irregular, chain, forkjoin, sp
	tasks int
	procs int
	ccr   float64
	seed  int64
}

var pfCases = []portfolioCase{
	{"PortfolioIrregular30Tasks16Procs", "irregular", 30, 16, 0.25, 7},
	{"PortfolioChain20Tasks8Procs", "chain", 20, 8, 1.0, 7},
	{"PortfolioForkJoin30Tasks16Procs", "forkjoin", 30, 16, 0.25, 7},
	{"PortfolioSP30Tasks16Procs", "sp", 30, 16, 0.25, 7},
}

// buildPortfolioInstance realizes one portfolio case's task graph and
// cluster.
func buildPortfolioInstance(pc portfolioCase) (*locmps.TaskGraph, locmps.Cluster, error) {
	p := locmps.DefaultSynthParams()
	p.Tasks = pc.tasks
	p.CCR = pc.ccr
	p.Seed = pc.seed
	var (
		tg  *locmps.TaskGraph
		err error
	)
	switch pc.shape {
	case "irregular":
		tg, err = locmps.Synthetic(p)
	case "chain":
		tg, err = locmps.SyntheticChain(p)
	case "forkjoin":
		tg, err = locmps.SyntheticForkJoin(p)
	case "sp":
		tg, err = locmps.SyntheticSeriesParallel(p)
	default:
		return nil, locmps.Cluster{}, fmt.Errorf("unknown portfolio shape %q", pc.shape)
	}
	if err != nil {
		return nil, locmps.Cluster{}, err
	}
	return tg, locmps.Cluster{P: pc.procs, Bandwidth: 12.5e6, Overlap: true}, nil
}

// measurePortfolio races the default portfolio on one case (no deadline,
// fully deterministic) and checks the selection invariants at measurement
// time: the portfolio result equals the per-engine minimum, and the winner
// is the argmin with ties broken by portfolio order.
func measurePortfolio(pc portfolioCase) (PortfolioEntry, error) {
	tg, c, err := buildPortfolioInstance(pc)
	if err != nil {
		return PortfolioEntry{}, err
	}
	res, err := locmps.RacePortfolio(context.Background(), tg, c, locmps.PortfolioOptions{})
	if err != nil {
		return PortfolioEntry{}, err
	}
	e := PortfolioEntry{
		EngineMakespans:   make(map[string]float64, len(res.Candidates)),
		PortfolioMakespan: res.Schedule.Makespan,
		Winner:            res.Winner,
		RaceNs:            float64(res.Elapsed),
	}
	argmin := ""
	for _, cand := range res.Candidates {
		if cand.Err != nil {
			return PortfolioEntry{}, fmt.Errorf("engine %s: %w", cand.Engine, cand.Err)
		}
		mk := cand.Schedule.Makespan
		e.EngineMakespans[cand.Engine] = mk
		if argmin == "" || mk < e.MinMakespan {
			argmin, e.MinMakespan = cand.Engine, mk
		}
	}
	if e.PortfolioMakespan != e.MinMakespan {
		return PortfolioEntry{}, fmt.Errorf("portfolio makespan %.6g != per-engine minimum %.6g",
			e.PortfolioMakespan, e.MinMakespan)
	}
	if e.Winner != argmin {
		return PortfolioEntry{}, fmt.Errorf("winner %s is not the argmin %s", e.Winner, argmin)
	}
	return e, nil
}

func main() {
	path := flag.String("o", "BENCH_locmps.json", "output file (baseline inside is preserved)")
	rebase := flag.String("rebaseline", "", "comma-separated case names whose baseline is re-measured with the reference scheduler (memo/resume off)")
	reps := flag.Int("reps", 3, "benchmark repetitions per case; the fastest is recorded")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the runs to this file")
	gate := flag.Bool("gate", false, "regression gate: re-measure every case and fail if ns/op exceeds the committed current snapshot by more than -gate-threshold, or if any makespan changed; re-races the portfolio cases and fails if the winner or makespan drifts; also audits the committed BENCH_serve.json (current vs its baseline plus the absolute warm_overhead_x bound, no re-measurement); writes no file")
	gateThreshold := flag.Float64("gate-threshold", 1.6, "allowed ns/op ratio over the committed snapshot before -gate fails")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "benchjson: -reps must be at least 1")
		os.Exit(1)
	}
	work := func() error { return run(*path, *rebase, *reps) }
	if *gate {
		work = func() error { return gateRun(*path, *reps, *gateThreshold) }
	}
	if err := profiled(*cpuprofile, *memprofile, work); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gateRun is the CI regression gate: it re-measures every case against the
// committed BENCH_locmps.json and fails when timing regresses past the
// threshold or when any makespan differs from the committed one (schedules
// are deterministic — a changed makespan is a behavior change, not noise).
func gateRun(path string, reps int, threshold float64) error {
	prev, err := load(path)
	if err != nil {
		return err
	}
	if prev == nil || len(prev.Current) == 0 {
		return fmt.Errorf("-gate: no committed snapshot in %s to gate against", path)
	}
	var failures []string
	for _, cs := range cases {
		committed, ok := prev.Current[cs.name]
		if !ok {
			fmt.Printf("%-34s not in committed snapshot; skipped\n", cs.name)
			continue
		}
		r, err := measure(cs, reps, false)
		if err != nil {
			return fmt.Errorf("%s: %w", cs.name, err)
		}
		ratio := r.NsPerOp / committed.NsPerOp
		status := "ok"
		if r.Makespan != committed.Makespan {
			status = "FAIL (makespan changed)"
			failures = append(failures, fmt.Sprintf("%s: makespan %.6g, committed %.6g — schedule changed",
				cs.name, r.Makespan, committed.Makespan))
		} else if ratio > threshold {
			status = "FAIL (slower)"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op is %.2fx the committed %.0f ns/op (threshold %.2fx)",
				cs.name, r.NsPerOp, ratio, committed.NsPerOp, threshold))
		}
		fmt.Printf("%-34s %14.0f ns/op  %5.2fx committed  %s\n", cs.name, r.NsPerOp, ratio, status)
	}
	// Portfolio cases re-race (deterministic: no deadline) and must
	// reproduce the committed entry exactly — makespans and winner — and
	// respect the selection invariant (portfolio == per-engine minimum,
	// checked inside measurePortfolio).
	for _, pc := range pfCases {
		committed, ok := prev.Portfolio[pc.name]
		if !ok {
			fmt.Printf("%-34s not in committed snapshot; skipped\n", pc.name)
			continue
		}
		e, err := measurePortfolio(pc)
		if err != nil {
			return fmt.Errorf("%s: %w", pc.name, err)
		}
		status := "ok"
		if e.PortfolioMakespan != committed.PortfolioMakespan || e.Winner != committed.Winner {
			status = "FAIL (portfolio changed)"
			failures = append(failures, fmt.Sprintf("%s: portfolio %.6g/%s, committed %.6g/%s — race outcome changed",
				pc.name, e.PortfolioMakespan, e.Winner, committed.PortfolioMakespan, committed.Winner))
		}
		fmt.Printf("%-34s portfolio %.6g (winner %s)  %s\n", pc.name, e.PortfolioMakespan, e.Winner, status)
	}
	serveFailures, err := gateServe("BENCH_serve.json", threshold)
	if err != nil {
		return err
	}
	failures = append(failures, serveFailures...)
	streamFailures, err := gateStream("BENCH_stream.json", threshold)
	if err != nil {
		return err
	}
	failures = append(failures, streamFailures...)
	if len(failures) > 0 {
		return fmt.Errorf("gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("bench gate passed")
	return nil
}

// serveGateMetrics are the per-case figures gated in BENCH_serve.json. The
// serving benchmarks take minutes of wall clock, so unlike the scheduler
// cases the gate does not re-measure: it audits the committed file itself —
// current vs the baseline recorded alongside it — and fails when a commit
// records a regression past the threshold. Tail latency gates upward
// (current may not exceed threshold x baseline), speedups gate downward
// (baseline may not exceed threshold x current).
var serveGateMetrics = []struct {
	field         string
	lowerIsBetter bool
	// nsFloor marks nanosecond metrics subject to serveGateFloorNs: a
	// sub-millisecond latency is one preempted goroutine away from any
	// ratio, so such pairs are exempt.
	nsFloor bool
	// skipTruncated exempts the metric when the case records
	// truncated=true: a deadline that actually cut the search makes the
	// figure a function of how often the host preempted the worker inside
	// the budget — scheduler noise, not a regression. (cmd/loadgen already
	// records the best of several repetitions for these cases; the
	// exemption covers the residual drift.)
	skipTruncated bool
}{
	{field: "warm_p99_ns", lowerIsBetter: true, nsFloor: true},
	{field: "net_warm_p99_ns", lowerIsBetter: true, nsFloor: true},
	{field: "hedged_p99_ns", lowerIsBetter: true, nsFloor: true},
	{field: "hit_speedup_x"},
	{field: "cold_schedules_per_sec"},
	{field: "quality_ratio", lowerIsBetter: true, skipTruncated: true},
}

// serveGateWarmOverheadMax is an absolute bound, not a baseline ratio: the
// portfolio case's winner-routed warm p50 may cost at most 10% over the
// direct single-engine call, whatever the baseline recorded.
const serveGateWarmOverheadMax = 1.10

// serveGateFloorNs exempts sub-millisecond latency figures from the serve
// gate: a p99 that small is one preempted goroutine away from any ratio,
// so gating it would only gate the host's scheduler.
const serveGateFloorNs = 1e6

// gateServe audits the committed serving-benchmark file. A missing file is
// fine (the serving suite may not have run on this checkout); a malformed
// one is not. Returns gate failure messages; stale baselines only warn.
func gateServe(path string, threshold float64) ([]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Printf("%-34s missing; serve gate skipped\n", path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f struct {
		Baseline map[string]map[string]json.RawMessage `json:"baseline"`
		Current  map[string]map[string]json.RawMessage `json:"current"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(f.Current))
	for name := range f.Current {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		cur := f.Current[name]
		// The warm-overhead bound is absolute — it gates current alone, so
		// it applies even to cases with no baseline yet.
		status := "ok"
		if ox, ok := rawFloat(cur["warm_overhead_x"]); ok && ox > serveGateWarmOverheadMax {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %s warm_overhead_x %.3f exceeds the absolute bound %.2f",
				path, name, ox, serveGateWarmOverheadMax))
		}
		base, ok := f.Baseline[name]
		if !ok {
			fmt.Printf("%-34s not in %s baseline; %s (absolute checks only)\n", name, path, status)
			continue
		}
		truncated := false
		if raw, ok := cur["truncated"]; ok {
			_ = json.Unmarshal(raw, &truncated)
		}
		for _, m := range serveGateMetrics {
			if m.skipTruncated && truncated {
				continue
			}
			b, okB := rawFloat(base[m.field])
			c, okC := rawFloat(cur[m.field])
			if !okB || !okC || b <= 0 || c <= 0 {
				continue
			}
			if m.nsFloor && b < serveGateFloorNs && c < serveGateFloorNs {
				continue
			}
			ratio := c / b
			if !m.lowerIsBetter {
				ratio = b / c
			}
			if ratio > threshold {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s %s %.4g vs baseline %.4g is %.2fx worse (threshold %.2fx)",
					path, name, m.field, c, b, ratio, threshold))
			}
		}
		fmt.Printf("%-34s serve gate %s\n", name, status)
	}
	warnStaleRaw(path)
	return failures, nil
}

// streamGateSpeedupMin is the absolute floor on the streaming steady
// case's incremental-vs-scratch speedup: the rolling-horizon reuse
// machinery must beat full scratch rescheduling at least 2x (at
// bit-identical end states — cmd/streamgen refuses to record a speedup
// otherwise).
const streamGateSpeedupMin = 2.0

// streamGateMetrics are the per-case figures gated against the baseline
// in BENCH_stream.json, same conventions as serveGateMetrics: the gate
// audits the committed file rather than re-replaying (a full replay
// costs tens of seconds), latency gates upward, rates gate downward.
var streamGateMetrics = []struct {
	field         string
	lowerIsBetter bool
	nsFloor       bool
}{
	{field: "resched_p50_ns", lowerIsBetter: true, nsFloor: true},
	{field: "resched_p99_ns", lowerIsBetter: true, nsFloor: true},
	{field: "incremental_search_ns", lowerIsBetter: true},
	{field: "replay_rate_eps"},
}

// streamGateRequired names the invariant flags each streaming case must
// carry: cmd/streamgen only writes them true, so an absent or false flag
// means the committed file was edited or produced by a broken run.
var streamGateRequired = map[string]string{
	"StreamSteadyPoisson": "end_bit_identical",
	"StreamT0Batch":       "t0_match",
	"StreamChurnFailures": "audit_clean",
}

// gateStream audits the committed streaming-benchmark file. A missing
// file is fine (the streaming suite may not have run on this checkout);
// a malformed one is not. Returns gate failure messages; stale baselines
// only warn.
func gateStream(path string, threshold float64) ([]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Printf("%-34s missing; stream gate skipped\n", path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f struct {
		Baseline map[string]map[string]json.RawMessage `json:"baseline"`
		Current  map[string]map[string]json.RawMessage `json:"current"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(f.Current))
	for name := range f.Current {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		cur := f.Current[name]
		status := "ok"
		// Absolute checks first — they gate current alone, baseline or not.
		if flag, ok := streamGateRequired[name]; ok && !rawBool(cur[flag]) {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %s %s is not true — invariant broken or file edited",
				path, name, flag))
		}
		if sx, ok := rawFloat(cur["speedup_x"]); ok && sx < streamGateSpeedupMin {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %s speedup_x %.2f below the absolute floor %.1fx",
				path, name, sx, streamGateSpeedupMin))
		}
		if p50, ok := rawFloat(cur["resched_p50_ns"]); ok {
			if p99, ok := rawFloat(cur["resched_p99_ns"]); ok && p50 > p99 {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s resched_p50_ns %.4g exceeds resched_p99_ns %.4g",
					path, name, p50, p99))
			}
		}
		base, ok := f.Baseline[name]
		if !ok {
			fmt.Printf("%-34s not in %s baseline; %s (absolute checks only)\n", name, path, status)
			continue
		}
		for _, m := range streamGateMetrics {
			b, okB := rawFloat(base[m.field])
			c, okC := rawFloat(cur[m.field])
			if !okB || !okC || b <= 0 || c <= 0 {
				continue
			}
			if m.nsFloor && b < serveGateFloorNs && c < serveGateFloorNs {
				continue
			}
			ratio := c / b
			if !m.lowerIsBetter {
				ratio = b / c
			}
			if ratio > threshold {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s %s %.4g vs baseline %.4g is %.2fx worse (threshold %.2fx)",
					path, name, m.field, c, b, ratio, threshold))
			}
		}
		fmt.Printf("%-34s stream gate %s\n", name, status)
	}
	warnStaleRaw(path)
	return failures, nil
}

// rawBool decodes a raw JSON value as a bool; non-bools and absent
// fields report false.
func rawBool(raw json.RawMessage) bool {
	if raw == nil {
		return false
	}
	var v bool
	if err := json.Unmarshal(raw, &v); err != nil {
		return false
	}
	return v
}

// rawFloat decodes a raw JSON value as a number; non-numbers (bools,
// strings, absent fields) report false.
func rawFloat(raw json.RawMessage) (float64, bool) {
	if raw == nil {
		return 0, false
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, false
	}
	return v, true
}

// profiled wraps fn with optional CPU and heap profiling; the heap profile
// is taken after a GC so it reflects live retention.
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func run(path, rebase string, reps int) error {
	out := File{
		Note:     "Mid-scale LoC-MPS scheduler benchmarks (synthetic graphs, CCR=0.1, seed 7). Baseline is preserved across runs; delete this file to re-baseline, or re-measure single cases with -rebaseline (reference scheduler: memo/resume off). Each figure is the fastest of -reps repetitions.",
		CPUs:     runtime.NumCPU(),
		Current:  map[string]Result{},
		SpeedupX: map[string]Speedup{},
	}
	if prev, err := load(path); err != nil {
		return err
	} else if prev != nil && len(prev.Baseline) > 0 {
		out.Baseline = prev.Baseline
		if prev.Note != "" {
			out.Note = prev.Note
		}
	}

	for _, name := range splitNames(rebase) {
		cs, ok := caseByName(name)
		if !ok {
			return fmt.Errorf("-rebaseline: unknown case %q", name)
		}
		if out.Baseline == nil {
			out.Baseline = map[string]Result{}
		}
		r, err := measure(cs, reps, true)
		if err != nil {
			return fmt.Errorf("%s (rebaseline): %w", cs.name, err)
		}
		out.Baseline[cs.name] = r
		fmt.Printf("%-34s baseline re-measured with reference scheduler: %.0f ns/op\n", cs.name, r.NsPerOp)
	}

	for _, cs := range cases {
		r, err := measure(cs, reps, false)
		if err != nil {
			return fmt.Errorf("%s: %w", cs.name, err)
		}
		out.Current[cs.name] = r
		fmt.Printf("%-34s %14.0f ns/op %12.0f B/op %10.0f allocs/op  makespan %.6g (%.3fx CPR)\n",
			cs.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Makespan, r.RatioVsCPR)
		if s := r.Search; s != nil {
			fmt.Printf("%-34s %14d locbs %12d hits %10d misses  %.1f%% hit rate\n",
				"", s.LoCBSRuns, s.CacheHits, s.CacheMisses, 100*s.CacheHitRate)
			if s.ResumedRuns > 0 {
				fmt.Printf("%-34s %14d resumed %10d replayed %8d rolled back  %.1f%% replay\n",
					"", s.ResumedRuns, s.ReplayedTasks, s.RollbackDepth, 100*s.ReplayRate)
			}
		}
	}
	// The anytime curve is recorded for the largest case only: small
	// instances finish in a handful of rounds, so most budget points
	// coincide with the full search and carry no information.
	{
		cs := cases[len(cases)-1]
		curve, err := tradeoffCurve(cs)
		if err != nil {
			return fmt.Errorf("%s (anytime): %w", cs.name, err)
		}
		out.AnytimeTradeoff = map[string][]TradeoffPoint{cs.name: curve}
		for _, pt := range curve {
			budget := fmt.Sprintf("iters=%d", pt.MaxIterations)
			if pt.MaxIterations == 0 {
				budget = "unbounded"
			}
			fmt.Printf("%-34s anytime %-10s %12.0f ns  makespan %.6g  quality %.3fx bound  truncated=%v\n",
				cs.name, budget, pt.Ns, pt.Makespan, pt.QualityRatio, pt.Truncated)
		}
	}
	out.Portfolio = map[string]PortfolioEntry{}
	for _, pc := range pfCases {
		e, err := measurePortfolio(pc)
		if err != nil {
			return fmt.Errorf("%s: %w", pc.name, err)
		}
		out.Portfolio[pc.name] = e
		fmt.Printf("%-34s portfolio %.6g = min over %d engines (winner %s, race %v)\n",
			pc.name, e.PortfolioMakespan, len(e.EngineMakespans), e.Winner, time.Duration(e.RaceNs))
	}
	if out.Baseline == nil {
		out.Baseline = out.Current
		fmt.Println("no existing baseline: current run recorded as baseline")
	} else {
		// Cases added after the baseline was first recorded start their
		// trajectory at this run.
		for name, cur := range out.Current {
			if _, ok := out.Baseline[name]; !ok {
				out.Baseline[name] = cur
				fmt.Printf("%-34s new case: current run backfilled into baseline\n", name)
			}
		}
	}
	for name, cur := range out.Current {
		if base, ok := out.Baseline[name]; ok && cur.NsPerOp > 0 && cur.AllocsPerOp > 0 {
			out.SpeedupX[name] = Speedup{
				Ns:     base.NsPerOp / cur.NsPerOp,
				Allocs: base.AllocsPerOp / cur.AllocsPerOp,
			}
			fmt.Printf("%-34s %6.2fx ns/op %6.2fx allocs/op vs baseline\n",
				name, out.SpeedupX[name].Ns, out.SpeedupX[name].Allocs)
		}
	}
	warnStale(&out)
	warnStaleRaw("BENCH_serve.json")
	warnStaleRaw("BENCH_stream.json")

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tradeoffCurve measures the anytime makespan-vs-latency curve on one
// case: the schedule each MaxIterations budget buys (deterministic — no
// wall clock in the stop rule) and the wall time it cost. Monotonicity of
// the quality ratio across growing budgets is asserted by the core tests;
// here the points are only recorded.
func tradeoffCurve(cs benchCase) ([]TradeoffPoint, error) {
	p := locmps.DefaultSynthParams()
	p.Tasks = cs.tasks
	p.CCR = 0.1
	p.Seed = 7
	tg, err := locmps.Synthetic(p)
	if err != nil {
		return nil, err
	}
	c := locmps.Cluster{P: cs.procs, Bandwidth: 12.5e6, Overlap: true}
	ctx := context.Background()
	curve := make([]TradeoffPoint, 0, len(tradeoffBudgets))
	for _, iters := range tradeoffBudgets {
		t0 := time.Now()
		res, err := locmps.ScheduleAnytime(ctx, tg, c, locmps.Budget{MaxIterations: iters})
		if err != nil {
			return nil, err
		}
		curve = append(curve, TradeoffPoint{
			MaxIterations: iters,
			Ns:            float64(time.Since(t0)),
			Makespan:      res.Schedule.Makespan,
			QualityRatio:  res.Ratio,
			Truncated:     res.Truncated,
		})
	}
	return curve, nil
}

// warnStale flags every case whose baseline and current snapshots are
// byte-identical: the 1.0x speedup such a pair produces is the fingerprint
// of a backfilled (never re-measured) baseline, not a measurement.
func warnStale(f *File) {
	for name, cur := range f.Current {
		base, ok := f.Baseline[name]
		if !ok {
			continue
		}
		bj, err1 := json.Marshal(base)
		cj, err2 := json.Marshal(cur)
		if err1 == nil && err2 == nil && bytes.Equal(bj, cj) {
			fmt.Fprintf(os.Stderr,
				"benchjson: warning: %s baseline == current byte-for-byte (stale backfill, speedup vacuously 1.0x); re-measure it with -rebaseline %s\n",
				name, name)
		}
	}
}

// warnStaleRaw applies the same stale-baseline check to a sibling benchmark
// file this tool does not write (currently BENCH_serve.json, produced by
// cmd/loadgen): any case whose baseline and current raw JSON are
// byte-identical is flagged. The file's schema doesn't matter — only the
// baseline/current maps are compared — and a missing file is fine.
func warnStaleRaw(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var f struct {
		Baseline map[string]json.RawMessage `json:"baseline"`
		Current  map[string]json.RawMessage `json:"current"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: warning: %s is not valid JSON: %v\n", path, err)
		return
	}
	for name, cur := range f.Current {
		if base, ok := f.Baseline[name]; ok && bytes.Equal(base, cur) {
			fmt.Fprintf(os.Stderr,
				"benchjson: warning: %s: %s baseline == current byte-for-byte (stale backfill); delete the file to re-baseline\n",
				path, name)
		}
	}
}

func splitNames(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func caseByName(name string) (benchCase, bool) {
	for _, cs := range cases {
		if cs.name == name {
			return cs, true
		}
	}
	return benchCase{}, false
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("existing %s is not valid: %w", path, err)
	}
	return &f, nil
}

// measure builds the same instance as the bench_test.go benchmark of the
// same name and times the scheduler on it: the optimized LoC-MPS, or (for
// re-baselining) the reference configuration with its cross-run
// accelerations off. Timing repeats reps times and the fastest repetition
// is recorded, which suppresses scheduler jitter the same way benchstat's
// min column does.
func measure(cs benchCase, reps int, reference bool) (Result, error) {
	p := locmps.DefaultSynthParams()
	p.Tasks = cs.tasks
	p.CCR = 0.1
	p.Seed = 7
	tg, err := locmps.Synthetic(p)
	if err != nil {
		return Result{}, err
	}
	c := locmps.Cluster{P: cs.procs, Bandwidth: 12.5e6, Overlap: true}
	newAlg := locmps.NewLoCMPS
	if reference {
		newAlg = locmps.NewLoCMPSReference
	}

	alg := newAlg()
	s, err := alg.Schedule(tg, c)
	if err != nil {
		return Result{}, err
	}
	cpr, err := locmps.NewCPR().Schedule(tg, c)
	if err != nil {
		return Result{}, err
	}

	var best testing.BenchmarkResult
	for rep := 0; rep < reps; rep++ {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newAlg().Schedule(tg, c); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return Result{}, benchErr
		}
		if rep == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	res := Result{
		NsPerOp:     float64(best.NsPerOp()),
		BytesPerOp:  float64(best.AllocedBytesPerOp()),
		AllocsPerOp: float64(best.AllocsPerOp()),
		Makespan:    s.Makespan,
		RatioVsCPR:  s.Makespan / cpr.Makespan,
	}
	if m, ok := locmps.SearchMetrics(alg); ok {
		res.Search = snapshot(m)
	}
	return res, nil
}
