// Command loadgen drives the scheduling service with a closed-loop load
// generator and records service-level throughput and latency in
// BENCH_serve.json so the serving layer's trajectory is tracked across PRs
// alongside the scheduler-kernel numbers in BENCH_locmps.json.
//
// Three phases per worker count (1, 2, 4):
//
//   - cold: a stream of distinct synthetic graphs, every request a cold
//     scheduler run on a warm worker (schedules/sec, p50/p99);
//   - warm: the same stream replayed, every request a content-addressed
//     cache hit (schedules/sec, p50/p99);
//   - hit speedup: one 50-task/64-processor instance measured cold, then
//     served from the cache — the ratio is the headline win of the
//     result cache.
//
// The file keeps a "baseline" (written once, preserved on reruns) and a
// "current" snapshot plus derived speedups, the same convention as
// BENCH_locmps.json; delete the file to re-baseline. The host's CPU count
// is recorded too: cold throughput is compute-bound, so scaling with worker
// count is only observable when the host has at least that many CPUs.
//
// Three network cases ride along, each against self-hosted HTTP nodes: warm
// throughput over the wire vs in-process on the same mid-scale stream, the
// hedged-retry p99 win against an artificially slow home node, and the
// disk-L2 restart hit (cold search vs disk hit after a node restart).
//
// With -addr, loadgen instead drives already-running schedserved nodes over
// HTTP (smoke-style, no file written) and reports the nodes' admission
// counters; -expect-l2 asserts a minimum number of disk hits, for restart
// smoke tests.
//
// Usage:
//
//	go run ./cmd/loadgen                # update BENCH_serve.json in place
//	go run ./cmd/loadgen -o out.json
//	go run ./cmd/loadgen -smoke         # reduced load, sanity checks, no file
//	go run ./cmd/loadgen -workers 2     # drive a single worker count
//	go run ./cmd/loadgen -deadline 5ms  # wall-clock budget for the anytime case
//	go run ./cmd/loadgen -addr http://127.0.0.1:8080,http://127.0.0.1:8081
//	go run ./cmd/loadgen -addr http://127.0.0.1:8080 -expect-l2 1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"locmps"
)

// Result is one load-generation snapshot. Throughput cases fill the phase
// fields; the hit-speedup case fills the latency pair and the ratio.
type Result struct {
	Workers  int `json:"workers,omitempty"`
	Distinct int `json:"distinct_requests,omitempty"`
	// Cold phase: every request is a cold scheduler run.
	ColdSchedPerSec float64 `json:"cold_schedules_per_sec,omitempty"`
	ColdP50Ns       float64 `json:"cold_p50_ns,omitempty"`
	ColdP99Ns       float64 `json:"cold_p99_ns,omitempty"`
	// Warm phase: the same stream replayed out of the result cache.
	WarmSchedPerSec float64 `json:"warm_schedules_per_sec,omitempty"`
	WarmP50Ns       float64 `json:"warm_p50_ns,omitempty"`
	WarmP99Ns       float64 `json:"warm_p99_ns,omitempty"`
	// Hit-speedup case: one instance cold vs served from the cache.
	ColdNs      float64 `json:"cold_ns,omitempty"`
	WarmHitNs   float64 `json:"warm_hit_p50_ns,omitempty"`
	HitSpeedupX float64 `json:"hit_speedup_x,omitempty"`
	// Deadline case: one instance scheduled under a wall-clock anytime
	// budget against the same instance's full run. QualityRatio is the
	// anytime schedule's makespan over the instance's certified lower
	// bound (>= 1 always); Truncated says whether the budget actually cut
	// the search short on this host.
	DeadlineNs      float64 `json:"deadline_ns,omitempty"`
	AnytimeNs       float64 `json:"anytime_ns,omitempty"`
	AnytimeMakespan float64 `json:"anytime_makespan,omitempty"`
	FullMakespan    float64 `json:"full_makespan,omitempty"`
	QualityRatio    float64 `json:"quality_ratio,omitempty"`
	Truncated       bool    `json:"truncated,omitempty"`
	// Network case: the same cold/warm phases driven over HTTP against
	// self-hosted nodes, and the warm network throughput as a fraction of
	// the in-process warm throughput on the same request set.
	NetColdSchedPerSec    float64 `json:"net_cold_schedules_per_sec,omitempty"`
	NetColdP50Ns          float64 `json:"net_cold_p50_ns,omitempty"`
	NetColdP99Ns          float64 `json:"net_cold_p99_ns,omitempty"`
	NetWarmSchedPerSec    float64 `json:"net_warm_schedules_per_sec,omitempty"`
	NetWarmP50Ns          float64 `json:"net_warm_p50_ns,omitempty"`
	NetWarmP99Ns          float64 `json:"net_warm_p99_ns,omitempty"`
	InprocWarmSchedPerSec float64 `json:"inproc_warm_schedules_per_sec,omitempty"`
	NetVsInprocWarmX      float64 `json:"net_vs_inproc_warm_x,omitempty"`
	// Hedging case: warm p99 against a slow home node, with hedged retries
	// off vs on; HedgeWinX = unhedged/hedged.
	UnhedgedP99Ns float64 `json:"unhedged_p99_ns,omitempty"`
	HedgedP99Ns   float64 `json:"hedged_p99_ns,omitempty"`
	HedgeWinX     float64 `json:"hedge_win_x,omitempty"`
	Hedges        uint64  `json:"hedges,omitempty"`
	// Admission and disruption counters observed during the case, summed
	// across nodes: Rejected (queue-full), Cancelled (client went away),
	// Shed (HTTP admission control), and the shed fraction of all HTTP
	// schedule attempts.
	Rejected     uint64  `json:"rejected,omitempty"`
	Cancelled    uint64  `json:"cancelled,omitempty"`
	Shed         uint64  `json:"shed,omitempty"`
	ShedFraction float64 `json:"shed_fraction,omitempty"`
	// L2Hits counts second-level (disk) cache hits during the case.
	L2Hits uint64 `json:"l2_hits,omitempty"`
	// Portfolio case: one instance raced cold across the engine portfolio,
	// then warm deadline-bounded repeats routed via the winner cache to the
	// winning engine alone, against the same engine called directly.
	// WarmOverheadX = winner-routed p50 / direct p50 — the price of the
	// routing layer, gated at <= 1.10 by benchjson -gate.
	PortfolioEngines  int     `json:"portfolio_engines,omitempty"`
	RaceNs            float64 `json:"race_ns,omitempty"`
	PortfolioWinner   string  `json:"portfolio_winner,omitempty"`
	WinnerRoutedP50Ns float64 `json:"winner_routed_p50_ns,omitempty"`
	DirectP50Ns       float64 `json:"direct_p50_ns,omitempty"`
	WarmOverheadX     float64 `json:"warm_overhead_x,omitempty"`
	WinnerHits        uint64  `json:"winner_hits,omitempty"`
}

// File is the on-disk layout of BENCH_serve.json.
type File struct {
	Note string `json:"note,omitempty"`
	// CPUs is the host's CPU count when "current" was recorded. Cold
	// throughput cannot scale past it regardless of worker count.
	CPUs     int                `json:"cpus"`
	Baseline map[string]Result  `json:"baseline"`
	Current  map[string]Result  `json:"current"`
	SpeedupX map[string]Speedup `json:"speedup_vs_baseline"`
}

// Speedup compares current against baseline: cold throughput as
// current/baseline (higher is better), warm hit latency as
// baseline/current (lower is better).
type Speedup struct {
	ColdThroughput float64 `json:"cold_throughput,omitempty"`
	WarmHitNs      float64 `json:"warm_hit_ns,omitempty"`
}

type config struct {
	workerCounts []int
	distinct     int
	tasks, procs int
	warmRounds   int
	hitTasks     int
	hitProcs     int
	hitReps      int
	deadline     time.Duration
	// dlReps repeats the deadline-budget measurement; the repetition with
	// the best (lowest) quality ratio is recorded. portReps repeats the
	// portfolio warm-path A/B measurement.
	dlReps   int
	portReps int
	// Network cases: distinct requests and warm rounds driven over HTTP,
	// the injected slow-node delay for the hedging case, and its reps.
	netDistinct int
	netRounds   int
	hedgeDelay  time.Duration
	hedgeReps   int
}

func fullConfig() config {
	return config{
		workerCounts: []int{1, 2, 4},
		distinct:     24, tasks: 24, procs: 16,
		warmRounds: 3,
		hitTasks:   50, hitProcs: 64, hitReps: 32,
		deadline: 5 * time.Millisecond,
		dlReps:   5, portReps: 8,
		netDistinct: 6, netRounds: 6,
		hedgeDelay: 30 * time.Millisecond, hedgeReps: 12,
	}
}

func smokeConfig() config {
	return config{
		workerCounts: []int{1, 2},
		distinct:     6, tasks: 12, procs: 8,
		warmRounds: 2,
		hitTasks:   20, hitProcs: 16, hitReps: 8,
		deadline: 2 * time.Millisecond,
		dlReps:   3, portReps: 3,
		netDistinct: 3, netRounds: 2,
		hedgeDelay: 15 * time.Millisecond, hedgeReps: 6,
	}
}

func main() {
	path := flag.String("o", "BENCH_serve.json", "output file (baseline inside is preserved)")
	smoke := flag.Bool("smoke", false, "reduced load for CI: run the phases, check invariants, write no file")
	workers := flag.Int("workers", 0, "drive only this worker count instead of the default ladder")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the anytime deadline case (0 keeps the config default)")
	addr := flag.String("addr", "", "comma-separated node URLs: drive running schedserved nodes over HTTP instead of self-hosting (writes no file)")
	expectL2 := flag.Int("expect-l2", 0, "with -addr: require at least this many L2 (disk) hits across the nodes after the run")
	portSmoke := flag.Bool("portfolio-smoke", false, "run only the portfolio case at smoke scale, assert the winner-cache invariants, write no file")
	flag.Parse()
	if *portSmoke {
		if err := portfolioSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if *addr != "" {
		if err := remote(*addr, *smoke, *expectL2); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*path, *smoke, *workers, *deadline); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(path string, smoke bool, workers int, deadline time.Duration) error {
	cfg := fullConfig()
	if smoke {
		cfg = smokeConfig()
	}
	if workers > 0 {
		cfg.workerCounts = []int{workers}
	}
	if deadline > 0 {
		cfg.deadline = deadline
	}
	cpus := runtime.NumCPU()
	if procs, max := runtime.GOMAXPROCS(0), cfg.workerCounts[len(cfg.workerCounts)-1]; max > procs {
		fmt.Fprintf(os.Stderr,
			"loadgen: warning: %d workers exceed GOMAXPROCS=%d; they will time-slice, not parallelize — cold throughput and latency will not reflect %d-way hardware\n",
			max, procs, max)
	}

	current := map[string]Result{}
	for _, w := range cfg.workerCounts {
		r, err := throughputCase(w, cfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("LoadgenWorkers%d", w)
		current[name] = r
		fmt.Printf("%-38s cold %8.2f sched/s (p50 %v, p99 %v)  warm %10.0f sched/s (p50 %v, p99 %v)\n",
			name, r.ColdSchedPerSec, time.Duration(r.ColdP50Ns), time.Duration(r.ColdP99Ns),
			r.WarmSchedPerSec, time.Duration(r.WarmP50Ns), time.Duration(r.WarmP99Ns))
	}
	hit, err := hitSpeedupCase(cfg)
	if err != nil {
		return err
	}
	hitName := fmt.Sprintf("LoadgenHitSpeedup%dTasks%dProcs", cfg.hitTasks, cfg.hitProcs)
	current[hitName] = hit
	fmt.Printf("%-38s cold %v, cache hit %v: %.0fx\n",
		hitName, time.Duration(hit.ColdNs), time.Duration(hit.WarmHitNs), hit.HitSpeedupX)

	dl, err := deadlineCase(cfg)
	if err != nil {
		return err
	}
	dlName := "LoadgenDeadline"
	current[dlName] = dl
	fmt.Printf("%-38s budget %v: anytime %v (makespan %.3g, quality %.3fx bound, truncated=%v) vs full %.3g\n",
		dlName, time.Duration(dl.DeadlineNs), time.Duration(dl.AnytimeNs),
		dl.AnytimeMakespan, dl.QualityRatio, dl.Truncated, dl.FullMakespan)

	port, err := portfolioCase(cfg)
	if err != nil {
		return err
	}
	portName := "LoadgenPortfolio"
	current[portName] = port
	fmt.Printf("%-38s race of %d engines %v (winner %s); warm routed p50 %v vs direct %v = %.3fx overhead (%d winner hits)\n",
		portName, port.PortfolioEngines, time.Duration(port.RaceNs), port.PortfolioWinner,
		time.Duration(port.WinnerRoutedP50Ns), time.Duration(port.DirectP50Ns), port.WarmOverheadX, port.WinnerHits)

	net, err := netCase(cfg)
	if err != nil {
		return err
	}
	netName := fmt.Sprintf("LoadgenNet%dTasks%dProcs", cfg.hitTasks, cfg.hitProcs)
	current[netName] = net
	fmt.Printf("%-38s net cold %7.2f sched/s (p99 %v)  net warm %9.0f sched/s (p50 %v, p99 %v) = %.0f%% of in-process warm  [rejected %d cancelled %d shed %.0f%%]\n",
		netName, net.NetColdSchedPerSec, time.Duration(net.NetColdP99Ns),
		net.NetWarmSchedPerSec, time.Duration(net.NetWarmP50Ns), time.Duration(net.NetWarmP99Ns),
		100*net.NetVsInprocWarmX, net.Rejected, net.Cancelled, 100*net.ShedFraction)

	hedge, err := hedgeCase(cfg)
	if err != nil {
		return err
	}
	hedgeName := "LoadgenNetHedge"
	current[hedgeName] = hedge
	fmt.Printf("%-38s slow home node (+%v): warm p99 unhedged %v vs hedged %v = %.1fx win (%d hedges)\n",
		hedgeName, cfg.hedgeDelay, time.Duration(hedge.UnhedgedP99Ns), time.Duration(hedge.HedgedP99Ns),
		hedge.HedgeWinX, hedge.Hedges)

	l2r, err := l2RestartCase(cfg)
	if err != nil {
		return err
	}
	l2Name := "LoadgenNetL2Restart"
	current[l2Name] = l2r
	fmt.Printf("%-38s cold %v, disk hit after restart %v: %.0fx (l2 hits %d)\n",
		l2Name, time.Duration(l2r.ColdNs), time.Duration(l2r.WarmHitNs), l2r.HitSpeedupX, l2r.L2Hits)

	if smoke {
		return smokeChecks(current, hitName, dlName, portName, netName, hedgeName, l2Name)
	}

	out := File{
		Note:     "Scheduling-service load generation (closed loop): cold and cache-hit throughput and latency per worker count, plus the cache-hit speedup on one mid-scale instance. Baseline is preserved across runs; delete this file to re-baseline. Cold throughput is compute-bound and only scales with workers when the host has as many CPUs (see \"cpus\").",
		CPUs:     cpus,
		Current:  current,
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
	justBaselined := map[string]bool{}
	if out.Baseline == nil {
		out.Baseline = out.Current
		for name := range out.Current {
			justBaselined[name] = true
		}
		fmt.Println("no existing baseline: current run recorded as baseline")
	} else {
		for name, cur := range out.Current {
			if _, ok := out.Baseline[name]; !ok {
				out.Baseline[name] = cur
				justBaselined[name] = true
				fmt.Printf("%-38s new case: current run backfilled into baseline\n", name)
			}
		}
	}
	for name, cur := range out.Current {
		base, ok := out.Baseline[name]
		if !ok {
			continue
		}
		var sp Speedup
		if base.ColdSchedPerSec > 0 && cur.ColdSchedPerSec > 0 {
			sp.ColdThroughput = cur.ColdSchedPerSec / base.ColdSchedPerSec
		}
		if base.WarmHitNs > 0 && cur.WarmHitNs > 0 {
			sp.WarmHitNs = base.WarmHitNs / cur.WarmHitNs
		}
		if sp != (Speedup{}) {
			out.SpeedupX[name] = sp
		}
	}
	warnStale(&out, justBaselined)

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// smokeChecks validates the invariants a CI smoke run cares about: the
// cache must actually serve hits, hits must beat cold runs, the
// deadline-bounded anytime result must be a valid (bound-respecting,
// no-better-than-full) schedule, and the network layer must show its three
// wins — warm hits over HTTP, a hedging tail-latency cut, and a disk hit
// after restart.
func smokeChecks(current map[string]Result, hitName, dlName, portName, netName, hedgeName, l2Name string) error {
	special := map[string]bool{hitName: true, dlName: true, portName: true, netName: true, hedgeName: true, l2Name: true}
	for name, r := range current {
		if special[name] {
			continue
		}
		if r.WarmSchedPerSec <= r.ColdSchedPerSec {
			return fmt.Errorf("%s: warm throughput %.2f/s did not beat cold %.2f/s",
				name, r.WarmSchedPerSec, r.ColdSchedPerSec)
		}
	}
	hit := current[hitName]
	if hit.HitSpeedupX < 2 {
		return fmt.Errorf("%s: cache hit only %.1fx faster than cold", hitName, hit.HitSpeedupX)
	}
	dl := current[dlName]
	if dl.QualityRatio < 1 {
		return fmt.Errorf("%s: quality ratio %.4f below 1 — schedule beats the certified lower bound", dlName, dl.QualityRatio)
	}
	if dl.AnytimeMakespan < dl.FullMakespan*(1-1e-9) {
		return fmt.Errorf("%s: anytime makespan %.6g better than the full run's %.6g", dlName, dl.AnytimeMakespan, dl.FullMakespan)
	}
	if err := portfolioChecks(current[portName], portName); err != nil {
		return err
	}
	net := current[netName]
	if net.NetWarmSchedPerSec <= net.NetColdSchedPerSec {
		return fmt.Errorf("%s: warm network throughput %.2f/s did not beat cold %.2f/s",
			netName, net.NetWarmSchedPerSec, net.NetColdSchedPerSec)
	}
	if net.NetVsInprocWarmX <= 0.02 {
		return fmt.Errorf("%s: warm network throughput is only %.1f%% of in-process",
			netName, 100*net.NetVsInprocWarmX)
	}
	hedge := current[hedgeName]
	if hedge.Hedges == 0 {
		return fmt.Errorf("%s: no hedges fired against a slow home node", hedgeName)
	}
	if hedge.HedgedP99Ns >= hedge.UnhedgedP99Ns {
		return fmt.Errorf("%s: hedged p99 %v no better than unhedged %v",
			hedgeName, time.Duration(hedge.HedgedP99Ns), time.Duration(hedge.UnhedgedP99Ns))
	}
	l2r := current[l2Name]
	if l2r.L2Hits == 0 {
		return fmt.Errorf("%s: restarted node served no disk hits", l2Name)
	}
	if l2r.HitSpeedupX < 2 {
		return fmt.Errorf("%s: disk hit only %.1fx faster than cold", l2Name, l2r.HitSpeedupX)
	}
	fmt.Println("smoke checks passed")
	return nil
}

// portfolioSmoke is the -portfolio-smoke entry point: the portfolio case
// alone at smoke scale, its invariants asserted, no file written. CI runs
// this under -race (make portfolio-smoke), so it also shakes the race
// itself for data races.
func portfolioSmoke() error {
	cfg := smokeConfig()
	port, err := portfolioCase(cfg)
	if err != nil {
		return err
	}
	name := "LoadgenPortfolio"
	fmt.Printf("%-38s race of %d engines %v (winner %s); warm routed p50 %v vs direct %v = %.3fx overhead (%d winner hits)\n",
		name, port.PortfolioEngines, time.Duration(port.RaceNs), port.PortfolioWinner,
		time.Duration(port.WinnerRoutedP50Ns), time.Duration(port.DirectP50Ns), port.WarmOverheadX, port.WinnerHits)
	if err := portfolioChecks(port, name); err != nil {
		return err
	}
	fmt.Println("portfolio smoke passed")
	return nil
}

// portfolioChecks validates the portfolio case's invariants: the winner
// cache must actually route (portfolioCase already asserts the hit count
// and the routed-vs-race makespan equality; failures surface as errors),
// and the routing overhead must stay moderate. The smoke bound is looser
// than the 1.10x the bench gate enforces on the committed file — a CI smoke
// host is noisy and measures few reps.
func portfolioChecks(port Result, portName string) error {
	if port.PortfolioWinner == "" {
		return fmt.Errorf("%s: race committed no winner", portName)
	}
	if port.WinnerHits == 0 {
		return fmt.Errorf("%s: no winner-cache hits", portName)
	}
	if port.WarmOverheadX > 1.25 {
		return fmt.Errorf("%s: winner-routed p50 is %.2fx the direct call (smoke bound 1.25x)",
			portName, port.WarmOverheadX)
	}
	return nil
}

// stream builds n distinct scheduling requests (different seeds, therefore
// different fingerprints) over one cluster size.
func stream(n, tasks, procs int, seedBase int64) ([]locmps.ServiceRequest, error) {
	reqs := make([]locmps.ServiceRequest, n)
	for i := range reqs {
		p := locmps.DefaultSynthParams()
		p.Tasks = tasks
		p.CCR = 0.1
		p.Seed = seedBase + int64(i)
		tg, err := locmps.Synthetic(p)
		if err != nil {
			return nil, err
		}
		reqs[i] = locmps.ServiceRequest{
			Graph:   tg,
			Cluster: locmps.Cluster{P: procs, Bandwidth: 12.5e6, Overlap: true},
		}
	}
	return reqs, nil
}

// drive pushes rounds×reqs through the service with `concurrency` closed-loop
// submitters and returns the wall time and per-request latencies.
func drive(svc *locmps.Service, reqs []locmps.ServiceRequest, rounds, concurrency int) (time.Duration, []time.Duration, error) {
	total := rounds * len(reqs)
	lats := make([]time.Duration, total)
	sem := make(chan struct{}, concurrency)
	errCh := make(chan error, total)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < total; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			req := reqs[i%len(reqs)]
			t0 := time.Now()
			if _, err := svc.Schedule(req); err != nil {
				errCh <- err
				return
			}
			lats[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	select {
	case err := <-errCh:
		return 0, nil, err
	default:
	}
	return elapsed, lats, nil
}

// quantile is the nearest-rank percentile of lats — the same rank rule as
// internal/latring, so the driver-side and service-side quantiles agree.
func quantile(lats []time.Duration, q int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), lats...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	i := (len(cp)*q + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(cp) {
		i = len(cp)
	}
	return cp[i-1]
}

// throughputCase measures one worker count: a cold pass over distinct
// requests, then warm rounds served from the result cache.
func throughputCase(workers int, cfg config) (Result, error) {
	reqs, err := stream(cfg.distinct, cfg.tasks, cfg.procs, 1000)
	if err != nil {
		return Result{}, err
	}
	svc := locmps.NewService(locmps.ServiceConfig{
		Shards:          workers,
		WorkersPerShard: 1,
		QueueDepth:      256,
		CacheEntries:    4096,
	})
	defer svc.Close()

	// Oversubscribe the submitters slightly so every worker stays fed.
	concurrency := 2 * workers
	coldWall, coldLats, err := drive(svc, reqs, 1, concurrency)
	if err != nil {
		return Result{}, err
	}
	warmWall, warmLats, err := drive(svc, reqs, cfg.warmRounds, concurrency)
	if err != nil {
		return Result{}, err
	}
	st := svc.Stats()
	if st.Failed != 0 || st.Rejected != 0 {
		return Result{}, fmt.Errorf("workers=%d: %d failed, %d rejected requests", workers, st.Failed, st.Rejected)
	}
	return Result{
		Workers:         workers,
		Distinct:        cfg.distinct,
		ColdSchedPerSec: float64(len(reqs)) / coldWall.Seconds(),
		ColdP50Ns:       float64(quantile(coldLats, 50)),
		ColdP99Ns:       float64(quantile(coldLats, 99)),
		WarmSchedPerSec: float64(len(warmLats)) / warmWall.Seconds(),
		WarmP50Ns:       float64(quantile(warmLats, 50)),
		WarmP99Ns:       float64(quantile(warmLats, 99)),
		Rejected:        st.Rejected,
		Cancelled:       st.Cancelled,
	}, nil
}

// hitSpeedupCase times one mid-scale instance cold, then repeatedly as a
// cache hit, and reports cold / p50(hit).
func hitSpeedupCase(cfg config) (Result, error) {
	reqs, err := stream(1, cfg.hitTasks, cfg.hitProcs, 5000)
	if err != nil {
		return Result{}, err
	}
	req := reqs[0]
	svc := locmps.NewService(locmps.ServiceConfig{
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      8,
		CacheEntries:    16,
	})
	defer svc.Close()

	t0 := time.Now()
	if _, err := svc.Schedule(req); err != nil {
		return Result{}, err
	}
	coldNs := float64(time.Since(t0))

	hits := make([]time.Duration, cfg.hitReps)
	for i := range hits {
		t0 = time.Now()
		if _, err := svc.Schedule(req); err != nil {
			return Result{}, err
		}
		hits[i] = time.Since(t0)
	}
	if st := svc.Stats(); st.CacheHits != uint64(cfg.hitReps) {
		return Result{}, fmt.Errorf("hit case: %d cache hits, want %d", st.CacheHits, cfg.hitReps)
	}
	warmNs := float64(quantile(hits, 50))
	return Result{
		ColdNs:      coldNs,
		WarmHitNs:   warmNs,
		HitSpeedupX: coldNs / warmNs,
	}, nil
}

// deadlineCase schedules one mid-scale instance under a wall-clock anytime
// budget and compares it against the full (unbudgeted) run of the same
// instance: how much makespan the deadline costs, and how close the anytime
// result stays to the certified lower bound. Deadline runs bypass the
// result cache, so the anytime measurement is always a real run.
//
// A wall-clock budget makes the committed schedule host-dependent: a
// preempted goroutine commits fewer search rounds inside the same deadline
// and records a worse quality ratio — pure scheduler noise. Preemption only
// ever loses rounds, never gains them, so the measurement repeats dlReps
// times and the repetition with the best (lowest) quality ratio is
// recorded: that run is the closest to what the budget itself buys.
func deadlineCase(cfg config) (Result, error) {
	reqs, err := stream(1, cfg.hitTasks, cfg.hitProcs, 7000)
	if err != nil {
		return Result{}, err
	}
	req := reqs[0]
	svc := locmps.NewService(locmps.ServiceConfig{
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      8,
		CacheEntries:    16,
	})
	defer svc.Close()
	ctx := context.Background()

	full, err := svc.ScheduleAnytime(ctx, req, locmps.Budget{})
	if err != nil {
		return Result{}, err
	}
	reps := cfg.dlReps
	if reps < 1 {
		reps = 1
	}
	best := Result{
		DeadlineNs:   float64(cfg.deadline),
		FullMakespan: full.Schedule.Makespan,
	}
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		any, err := svc.ScheduleAnytime(ctx, req, locmps.Budget{Deadline: t0.Add(cfg.deadline)})
		if err != nil {
			return Result{}, err
		}
		if rep == 0 || any.Ratio < best.QualityRatio {
			best.AnytimeNs = float64(time.Since(t0))
			best.AnytimeMakespan = any.Schedule.Makespan
			best.QualityRatio = any.Ratio
			best.Truncated = any.Truncated
		}
	}
	return best, nil
}

// portfolioCase races the default engine portfolio cold on one mid-scale
// instance, then measures the warm path the winner cache buys: repeat
// deadline-bounded requests (which bypass the result caches) route straight
// to the recorded winning engine. The same engine is also called directly —
// Options.Algorithm naming the winner — and the A/B p50 ratio is the
// routing overhead, which must stay within 10% (benchjson -gate enforces
// it on the committed file). The two variants alternate rep by rep so slow
// host drift cancels out of the ratio.
func portfolioCase(cfg config) (Result, error) {
	reqs, err := stream(1, cfg.hitTasks, cfg.hitProcs, 15000)
	if err != nil {
		return Result{}, err
	}
	raceReq := reqs[0]
	raceReq.Portfolio = locmps.DefaultPortfolio()
	svc := locmps.NewService(locmps.ServiceConfig{
		Shards:          1,
		WorkersPerShard: 1,
		QueueDepth:      8,
		CacheEntries:    16,
	})
	defer svc.Close()
	ctx := context.Background()

	t0 := time.Now()
	cold, err := svc.Schedule(raceReq)
	if err != nil {
		return Result{}, err
	}
	raceNs := float64(time.Since(t0))
	winner := cold.Algorithm

	directReq := reqs[0]
	directReq.Options = locmps.ServiceOptions{Algorithm: winner}
	reps := cfg.portReps
	if reps < 1 {
		reps = 1
	}
	budget := func() locmps.Budget {
		return locmps.Budget{Deadline: time.Now().Add(time.Minute)}
	}
	routed := make([]time.Duration, reps)
	direct := make([]time.Duration, reps)
	for i := 0; i < reps; i++ {
		t0 = time.Now()
		ar, err := svc.ScheduleAnytime(ctx, raceReq, budget())
		if err != nil {
			return Result{}, err
		}
		routed[i] = time.Since(t0)
		if ar.Schedule.Makespan != cold.Makespan {
			return Result{}, fmt.Errorf("portfolio case: winner-routed makespan %.6g != race's %.6g",
				ar.Schedule.Makespan, cold.Makespan)
		}
		t0 = time.Now()
		if _, err := svc.ScheduleAnytime(ctx, directReq, budget()); err != nil {
			return Result{}, err
		}
		direct[i] = time.Since(t0)
	}
	st := svc.Stats()
	if st.WinnerHits < uint64(reps) {
		return Result{}, fmt.Errorf("portfolio case: %d winner-cache hits, want >= %d — repeats re-raced",
			st.WinnerHits, reps)
	}
	r := Result{
		PortfolioEngines:  len(raceReq.Portfolio),
		RaceNs:            raceNs,
		PortfolioWinner:   winner,
		WinnerRoutedP50Ns: float64(quantile(routed, 50)),
		DirectP50Ns:       float64(quantile(direct, 50)),
		WinnerHits:        st.WinnerHits,
	}
	if r.DirectP50Ns > 0 {
		r.WarmOverheadX = r.WinnerRoutedP50Ns / r.DirectP50Ns
	}
	return r, nil
}

// warnStale flags cases whose baseline and current snapshots are
// byte-identical — the fingerprint of a backfilled, never re-measured
// baseline. Cases baselined by this very run are exempt: their equality is
// by construction, not staleness.
func warnStale(f *File, justBaselined map[string]bool) {
	for name, cur := range f.Current {
		base, ok := f.Baseline[name]
		if !ok || justBaselined[name] {
			continue
		}
		bj, err1 := json.Marshal(base)
		cj, err2 := json.Marshal(cur)
		if err1 == nil && err2 == nil && bytes.Equal(bj, cj) {
			fmt.Fprintf(os.Stderr,
				"loadgen: warning: %s baseline == current byte-for-byte (stale backfill); delete %s to re-baseline\n",
				name, "BENCH_serve.json")
		}
	}
}

// node is one self-hosted scheduling node: a Service behind the HTTP
// transport on a loopback port.
type node struct {
	svc *locmps.Service
	srv *locmps.HTTPServer
	hs  *http.Server
	url string
}

// startNode boots a node; wrap, when non-nil, interposes on the HTTP
// handler (the hedging case uses it to slow one node down).
func startNode(cfg locmps.ServiceConfig, wrap func(http.Handler) http.Handler) (*node, error) {
	svc := locmps.NewService(cfg)
	srv := locmps.NewHTTPServer(svc, locmps.HTTPServerConfig{})
	h := http.Handler(srv.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	n := &node{svc: svc, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go n.hs.Serve(ln)
	return n, nil
}

func (n *node) stop() {
	n.hs.Close()
	n.svc.Close()
}

// slowBy wraps a handler so /v1/schedule stalls for d before being served —
// a deterministic slow backend for the hedging case.
func slowBy(d time.Duration) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/schedule") {
				time.Sleep(d)
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// driveClient is drive over HTTP: rounds×reqs closed-loop through a fleet
// client.
func driveClient(c *locmps.Client, reqs []locmps.ServiceRequest, rounds, concurrency int) (time.Duration, []time.Duration, error) {
	total := rounds * len(reqs)
	lats := make([]time.Duration, total)
	sem := make(chan struct{}, concurrency)
	errCh := make(chan error, total)
	ctx := context.Background()
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < total; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			t0 := time.Now()
			if _, err := c.Schedule(ctx, reqs[i%len(reqs)]); err != nil {
				errCh <- err
				return
			}
			lats[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	select {
	case err := <-errCh:
		return 0, nil, err
	default:
	}
	return elapsed, lats, nil
}

// sumCounters folds the per-node admission and disruption counters into r.
func sumCounters(r *Result, nodes ...*node) {
	var served uint64
	for _, n := range nodes {
		st := n.srv.Stats()
		r.Rejected += st.Rejected
		r.Cancelled += st.Cancelled
		r.Shed += st.Shed
		r.L2Hits += st.L2Hits
		served += st.Served
	}
	if total := served + r.Shed; total > 0 {
		r.ShedFraction = float64(r.Shed) / float64(total)
	}
}

// netCase drives the mid-scale instance set over HTTP against two
// self-hosted nodes — cold, then warm out of the nodes' caches — and
// measures the warm network throughput as a fraction of the in-process warm
// throughput on the identical request set. The fraction is the cost of the
// wire; the consistent-hash client keeps it bounded by routing repeat
// requests to the node whose cache is warm for them.
func netCase(cfg config) (Result, error) {
	reqs, err := stream(cfg.netDistinct, cfg.hitTasks, cfg.hitProcs, 9000)
	if err != nil {
		return Result{}, err
	}
	svcCfg := locmps.ServiceConfig{Shards: 2, WorkersPerShard: 1, QueueDepth: 256, CacheEntries: 4096}

	// In-process reference: warm throughput on the same stream.
	ref := locmps.NewService(svcCfg)
	defer ref.Close()
	if _, _, err := drive(ref, reqs, 1, 4); err != nil {
		return Result{}, err
	}
	inprocWall, _, err := drive(ref, reqs, cfg.netRounds, 4)
	if err != nil {
		return Result{}, err
	}
	inprocWarm := float64(cfg.netRounds*len(reqs)) / inprocWall.Seconds()

	a, err := startNode(svcCfg, nil)
	if err != nil {
		return Result{}, err
	}
	defer a.stop()
	b, err := startNode(svcCfg, nil)
	if err != nil {
		return Result{}, err
	}
	defer b.stop()
	// Hedging off: this case measures steady-state throughput, and hedging
	// cold multi-hundred-ms searches would only duplicate work.
	client, err := locmps.NewClient(locmps.ClientConfig{Nodes: []string{a.url, b.url}, DisableHedging: true})
	if err != nil {
		return Result{}, err
	}
	defer client.Close()
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = client.WaitReady(waitCtx)
	cancel()
	if err != nil {
		return Result{}, err
	}

	coldWall, coldLats, err := driveClient(client, reqs, 1, 4)
	if err != nil {
		return Result{}, err
	}
	warmWall, warmLats, err := driveClient(client, reqs, cfg.netRounds, 4)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Distinct:              cfg.netDistinct,
		NetColdSchedPerSec:    float64(len(coldLats)) / coldWall.Seconds(),
		NetColdP50Ns:          float64(quantile(coldLats, 50)),
		NetColdP99Ns:          float64(quantile(coldLats, 99)),
		NetWarmSchedPerSec:    float64(len(warmLats)) / warmWall.Seconds(),
		NetWarmP50Ns:          float64(quantile(warmLats, 50)),
		NetWarmP99Ns:          float64(quantile(warmLats, 99)),
		InprocWarmSchedPerSec: inprocWarm,
	}
	if inprocWarm > 0 {
		r.NetVsInprocWarmX = r.NetWarmSchedPerSec / inprocWarm
	}
	sumCounters(&r, a, b)
	return r, nil
}

// hedgeCase measures the hedging win: one node is made artificially slow,
// a request homed there is driven warm with hedging off (p99 eats the full
// injected delay every time) and then with hedging on (the replica answers
// after the hedge delay instead).
func hedgeCase(cfg config) (Result, error) {
	svcCfg := locmps.ServiceConfig{Shards: 1, WorkersPerShard: 1, QueueDepth: 64, CacheEntries: 256}
	slow, err := startNode(svcCfg, slowBy(cfg.hedgeDelay))
	if err != nil {
		return Result{}, err
	}
	defer slow.stop()
	fast, err := startNode(svcCfg, nil)
	if err != nil {
		return Result{}, err
	}
	defer fast.stop()

	hedged, err := locmps.NewClient(locmps.ClientConfig{
		Nodes:      []string{slow.url, fast.url},
		HedgeFloor: 2 * time.Millisecond,
	})
	if err != nil {
		return Result{}, err
	}
	defer hedged.Close()
	unhedged, err := locmps.NewClient(locmps.ClientConfig{
		Nodes:          []string{slow.url, fast.url},
		DisableHedging: true,
	})
	if err != nil {
		return Result{}, err
	}
	defer unhedged.Close()

	// Find a request whose consistent-hash home is the slow node, and warm
	// both nodes for it directly (no HTTP) so every measured request is a
	// cache hit.
	var req locmps.ServiceRequest
	found := false
	for seed := int64(11000); seed < 11128; seed++ {
		reqs, err := stream(1, cfg.tasks, cfg.procs, seed)
		if err != nil {
			return Result{}, err
		}
		key, err := reqs[0].Fingerprint()
		if err != nil {
			return Result{}, err
		}
		if primary, _ := hedged.Route(key); primary == slow.url {
			req, found = reqs[0], true
			break
		}
	}
	if !found {
		return Result{}, fmt.Errorf("hedge case: no request homed at the slow node in 128 seeds")
	}
	if _, err := slow.svc.Schedule(req); err != nil {
		return Result{}, err
	}
	if _, err := fast.svc.Schedule(req); err != nil {
		return Result{}, err
	}

	measure := func(c *locmps.Client) ([]time.Duration, error) {
		lats := make([]time.Duration, cfg.hedgeReps)
		ctx := context.Background()
		for i := range lats {
			t0 := time.Now()
			if _, err := c.Schedule(ctx, req); err != nil {
				return nil, err
			}
			lats[i] = time.Since(t0)
		}
		return lats, nil
	}
	slowLats, err := measure(unhedged)
	if err != nil {
		return Result{}, err
	}
	fastLats, err := measure(hedged)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		UnhedgedP99Ns: float64(quantile(slowLats, 99)),
		HedgedP99Ns:   float64(quantile(fastLats, 99)),
		Hedges:        hedged.Stats().Hedges,
	}
	if r.HedgedP99Ns > 0 {
		r.HedgeWinX = r.UnhedgedP99Ns / r.HedgedP99Ns
	}
	sumCounters(&r, slow, fast)
	return r, nil
}

// l2RestartCase runs one mid-scale instance cold on a node backed by a disk
// L2, tears the node down, boots a fresh node (empty L1) over the same
// directory, and times the same request again — now a disk hit served over
// HTTP, no search.
func l2RestartCase(cfg config) (Result, error) {
	dir, err := os.MkdirTemp("", "loadgen-l2-*")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	reqs, err := stream(1, cfg.hitTasks, cfg.hitProcs, 13000)
	if err != nil {
		return Result{}, err
	}
	req := reqs[0]
	ctx := context.Background()

	boot := func() (*node, *locmps.Client, error) {
		dc, err := locmps.OpenDiskCache(dir, 0)
		if err != nil {
			return nil, nil, err
		}
		n, err := startNode(locmps.ServiceConfig{Shards: 1, WorkersPerShard: 1, QueueDepth: 8, CacheEntries: 16, L2: dc}, nil)
		if err != nil {
			return nil, nil, err
		}
		c, err := locmps.NewClient(locmps.ClientConfig{Nodes: []string{n.url}})
		if err != nil {
			n.stop()
			return nil, nil, err
		}
		waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err = c.WaitReady(waitCtx)
		cancel()
		if err != nil {
			c.Close()
			n.stop()
			return nil, nil, err
		}
		return n, c, nil
	}

	n1, c1, err := boot()
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	_, err = c1.Schedule(ctx, req)
	coldNs := float64(time.Since(t0))
	c1.Close()
	n1.stop()
	if err != nil {
		return Result{}, err
	}

	n2, c2, err := boot()
	if err != nil {
		return Result{}, err
	}
	defer n2.stop()
	defer c2.Close()
	t0 = time.Now()
	_, err = c2.Schedule(ctx, req)
	hitNs := float64(time.Since(t0))
	if err != nil {
		return Result{}, err
	}
	r := Result{ColdNs: coldNs, WarmHitNs: hitNs, HitSpeedupX: coldNs / hitNs}
	sumCounters(&r, n2)
	return r, nil
}

// remote drives already-running schedserved nodes (-addr): wait for health,
// push the smoke stream cold and warm, and report throughput plus the
// nodes' admission counters. It never writes BENCH_serve.json — remote
// numbers depend on whatever the nodes are, and on their cache history.
func remote(addr string, smoke bool, expectL2 int) error {
	cfg := fullConfig()
	if smoke {
		cfg = smokeConfig()
	}
	nodes := strings.Split(addr, ",")
	client, err := locmps.NewClient(locmps.ClientConfig{Nodes: nodes})
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = client.WaitReady(waitCtx)
	cancel()
	if err != nil {
		return err
	}
	fmt.Printf("%d node(s) ready: %s\n", len(nodes), strings.Join(client.Nodes(), " "))

	reqs, err := stream(cfg.distinct, cfg.tasks, cfg.procs, 1000)
	if err != nil {
		return err
	}
	coldWall, coldLats, err := driveClient(client, reqs, 1, 4)
	if err != nil {
		return err
	}
	warmWall, warmLats, err := driveClient(client, reqs, cfg.warmRounds, 4)
	if err != nil {
		return err
	}
	fmt.Printf("first pass %8.2f sched/s (p50 %v, p99 %v)   replay %9.0f sched/s (p50 %v, p99 %v)\n",
		float64(len(coldLats))/coldWall.Seconds(), quantile(coldLats, 50), quantile(coldLats, 99),
		float64(len(warmLats))/warmWall.Seconds(), quantile(warmLats, 50), quantile(warmLats, 99))

	stats, err := client.NodeStats(ctx)
	if err != nil {
		return err
	}
	var rejected, cancelled, shed, served, failed, l2hits uint64
	for _, n := range client.Nodes() {
		st := stats[n]
		rejected += st.Rejected
		cancelled += st.Cancelled
		shed += st.Shed
		served += st.Served
		failed += st.Failed
		l2hits += st.L2Hits
		fmt.Printf("%-28s requests %5d  cache hits %5d  l2 hits %4d  rejected %3d  cancelled %3d  shed %3d\n",
			n, st.Requests, st.CacheHits, st.L2Hits, st.Rejected, st.Cancelled, st.Shed)
	}
	var shedFrac float64
	if total := served + shed; total > 0 {
		shedFrac = float64(shed) / float64(total)
	}
	fmt.Printf("totals: rejected %d, cancelled %d, shed %d (%.1f%% of attempts), l2 hits %d\n",
		rejected, cancelled, shed, 100*shedFrac, l2hits)
	if failed != 0 {
		return fmt.Errorf("nodes report %d failed runs", failed)
	}
	if cs := client.Stats(); cs.Hedges+cs.Failovers > 0 {
		fmt.Printf("client: %d hedges (%d wins), %d failovers\n", cs.Hedges, cs.HedgeWins, cs.Failovers)
	}
	if expectL2 > 0 && l2hits < uint64(expectL2) {
		return fmt.Errorf("expected >= %d L2 hits across nodes, saw %d", expectL2, l2hits)
	}
	fmt.Println("remote drive passed")
	return nil
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
