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
// The file schema, the baseline bookkeeping (including the warning about a
// stale baseline byte-identical to current) and every -gate check live in
// internal/benchgate; this command measures.
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
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"locmps"
	"locmps/internal/benchgate"
)

// snapshot records the slice of m that the bench file keeps.
func snapshot(m locmps.RunMetrics) *benchgate.SearchSnapshot {
	return &benchgate.SearchSnapshot{
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

// tradeoffBudgets are the MaxIterations points of the anytime curve, in
// measurement order; 0 (unbounded) last so the curve ends at the full
// search.
var tradeoffBudgets = []int{4, 16, 64, 256, 0}

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
// fully deterministic) and checks the selection invariant at measurement
// time (benchgate.CheckRace).
func measurePortfolio(pc portfolioCase) (benchgate.PortfolioEntry, error) {
	tg, c, err := buildPortfolioInstance(pc)
	if err != nil {
		return benchgate.PortfolioEntry{}, err
	}
	res, err := locmps.RacePortfolio(context.Background(), tg, c, locmps.PortfolioOptions{})
	if err != nil {
		return benchgate.PortfolioEntry{}, err
	}
	e := benchgate.PortfolioEntry{
		EngineMakespans:   make(map[string]float64, len(res.Candidates)),
		PortfolioMakespan: res.Schedule.Makespan,
		Winner:            res.Winner,
		RaceNs:            float64(res.Elapsed),
	}
	order := make([]string, 0, len(res.Candidates))
	for i, cand := range res.Candidates {
		if cand.Err != nil {
			return benchgate.PortfolioEntry{}, fmt.Errorf("engine %s: %w", cand.Engine, cand.Err)
		}
		e.EngineMakespans[cand.Engine] = cand.Schedule.Makespan
		order = append(order, cand.Engine)
		if i == 0 || cand.Schedule.Makespan < e.MinMakespan {
			e.MinMakespan = cand.Schedule.Makespan
		}
	}
	return e, benchgate.CheckRace(order, e)
}

func main() {
	path := flag.String("o", "BENCH_locmps.json", "output file (baseline inside is preserved)")
	rebase := flag.String("rebaseline", "", "comma-separated case names whose baseline is re-measured with the reference scheduler (memo/resume off)")
	reps := flag.Int("reps", 3, "benchmark repetitions per case; the fastest is recorded")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the runs to this file")
	gate := flag.Bool("gate", false, "regression gate: re-measure every case and fail if ns/op exceeds the committed current snapshot by more than -gate-threshold, or if any makespan changed; re-races the portfolio cases and fails if the winner or makespan drifts; also audits the committed BENCH_serve.json and BENCH_stream.json (current vs its baseline plus the absolute bounds, no re-measurement); writes no file")
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

// gateRun is the CI regression gate: it re-measures every case and re-races
// every portfolio case against the committed BENCH_locmps.json, then audits
// the committed BENCH_serve.json and BENCH_stream.json without re-measuring.
// The checks themselves are benchgate's.
func gateRun(path string, reps int, threshold float64) error {
	prev, _, err := benchgate.Read[benchgate.LocmpsFile](path)
	if err != nil {
		return err
	}
	if len(prev.Current) == 0 {
		return fmt.Errorf("-gate: no committed snapshot in %s to gate against", path)
	}
	benchgate.HostLine(os.Stdout, path, prev.CPUs)
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
		failures = append(failures, benchgate.GateCase(os.Stdout, cs.name, r, committed, threshold)...)
	}
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
		failures = append(failures, benchgate.GatePortfolio(os.Stdout, pc.name, e, committed)...)
	}
	serveFailures, err := benchgate.AuditServe(os.Stdout, "BENCH_serve.json", threshold)
	if err != nil {
		return err
	}
	streamFailures, err := benchgate.AuditStream(os.Stdout, "BENCH_stream.json", threshold)
	if err != nil {
		return err
	}
	failures = append(append(failures, serveFailures...), streamFailures...)
	if len(failures) > 0 {
		return fmt.Errorf("gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("bench gate passed")
	return nil
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
	out := benchgate.LocmpsFile{
		File:     benchgate.New[benchgate.LocmpsResult]("Mid-scale LoC-MPS scheduler benchmarks (synthetic graphs, CCR=0.1, seed 7). Baseline is preserved across runs; delete this file to re-baseline, or re-measure single cases with -rebaseline (reference scheduler: memo/resume off). Each figure is the fastest of -reps repetitions."),
		SpeedupX: map[string]benchgate.Speedup{},
	}
	prev, _, err := benchgate.Read[benchgate.LocmpsFile](path)
	if err != nil {
		return err
	}

	for _, name := range splitNames(rebase) {
		cs, ok := caseByName(name)
		if !ok {
			return fmt.Errorf("-rebaseline: unknown case %q", name)
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
		out.AnytimeTradeoff = map[string][]benchgate.TradeoffPoint{cs.name: curve}
		for _, pt := range curve {
			budget := fmt.Sprintf("iters=%d", pt.MaxIterations)
			if pt.MaxIterations == 0 {
				budget = "unbounded"
			}
			fmt.Printf("%-34s anytime %-10s %12.0f ns  makespan %.6g  quality %.3fx bound  truncated=%v\n",
				cs.name, budget, pt.Ns, pt.Makespan, pt.QualityRatio, pt.Truncated)
		}
	}
	out.Portfolio = map[string]benchgate.PortfolioEntry{}
	for _, pc := range pfCases {
		e, err := measurePortfolio(pc)
		if err != nil {
			return fmt.Errorf("%s: %w", pc.name, err)
		}
		out.Portfolio[pc.name] = e
		fmt.Printf("%-34s portfolio %.6g = min over %d engines (winner %s, race %v)\n",
			pc.name, e.PortfolioMakespan, len(e.EngineMakespans), e.Winner, time.Duration(e.RaceNs))
	}
	out.Update(prev.File, os.Stderr)
	for name, cur := range out.Current {
		if base := out.Baseline[name]; cur.NsPerOp > 0 && cur.AllocsPerOp > 0 {
			out.SpeedupX[name] = benchgate.Speedup{
				Ns:     base.NsPerOp / cur.NsPerOp,
				Allocs: base.AllocsPerOp / cur.AllocsPerOp,
			}
			fmt.Printf("%-34s %6.2fx ns/op %6.2fx allocs/op vs baseline\n",
				name, out.SpeedupX[name].Ns, out.SpeedupX[name].Allocs)
		}
	}
	return benchgate.Save(path, out)
}

// tradeoffCurve measures the anytime makespan-vs-latency curve on one
// case: the schedule each MaxIterations budget buys (deterministic — no
// wall clock in the stop rule) and the wall time it cost. Monotonicity of
// the quality ratio across growing budgets is asserted by the core tests;
// here the points are only recorded.
func tradeoffCurve(cs benchCase) ([]benchgate.TradeoffPoint, error) {
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
	curve := make([]benchgate.TradeoffPoint, 0, len(tradeoffBudgets))
	for _, iters := range tradeoffBudgets {
		t0 := time.Now()
		res, err := locmps.ScheduleAnytime(ctx, tg, c, locmps.Budget{MaxIterations: iters})
		if err != nil {
			return nil, err
		}
		curve = append(curve, benchgate.TradeoffPoint{
			MaxIterations: iters,
			Ns:            float64(time.Since(t0)),
			Makespan:      res.Schedule.Makespan,
			QualityRatio:  res.Ratio,
			Truncated:     res.Truncated,
		})
	}
	return curve, nil
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

// measure builds the same instance as the bench_test.go benchmark of the
// same name and times the scheduler on it: the optimized LoC-MPS, or (for
// re-baselining) the reference configuration with its cross-run
// accelerations off. Timing repeats reps times and the fastest repetition
// is recorded, which suppresses scheduler jitter the same way benchstat's
// min column does.
func measure(cs benchCase, reps int, reference bool) (benchgate.LocmpsResult, error) {
	p := locmps.DefaultSynthParams()
	p.Tasks = cs.tasks
	p.CCR = 0.1
	p.Seed = 7
	tg, err := locmps.Synthetic(p)
	if err != nil {
		return benchgate.LocmpsResult{}, err
	}
	c := locmps.Cluster{P: cs.procs, Bandwidth: 12.5e6, Overlap: true}
	newAlg := locmps.NewLoCMPS
	if reference {
		newAlg = locmps.NewLoCMPSReference
	}

	alg := newAlg()
	s, err := alg.Schedule(tg, c)
	if err != nil {
		return benchgate.LocmpsResult{}, err
	}
	cpr, err := locmps.NewCPR().Schedule(tg, c)
	if err != nil {
		return benchgate.LocmpsResult{}, err
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
			return benchgate.LocmpsResult{}, benchErr
		}
		if rep == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	res := benchgate.LocmpsResult{
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
