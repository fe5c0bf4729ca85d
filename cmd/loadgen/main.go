// Command loadgen drives the scheduling service with a closed-loop load
// generator and records service-level throughput and latency in
// BENCH_serve.json so the serving layer's trajectory is tracked across PRs
// alongside the scheduler-kernel numbers in BENCH_locmps.json.
//
// Three phases per worker count (1, 2, 4):
//
//   - cold: a stream of distinct synthetic graphs, every request a cold
//     scheduler run on a service worker (schedules/sec, p50/p99);
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
// count is only observable when the host has at least that many CPUs. The
// schema, the baseline bookkeeping and the smoke checks live in
// internal/benchgate.
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
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"locmps"
	"locmps/internal/benchgate"
)

// Result is one case's snapshot in the BENCH_serve.json schema.
type Result = benchgate.ServeResult

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
	// the best (lowest) quality ratio is recorded. portReps is the number of
	// routed and of direct calls the portfolio warm-path A/B measurement
	// times.
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
		dlReps:   5, portReps: 512,
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
		dlReps:   3, portReps: 192,
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
		if err := benchgate.SmokeChecks(current, hitName, dlName, portName, netName, hedgeName, l2Name); err != nil {
			return err
		}
		fmt.Println("smoke checks passed")
		return nil
	}

	out := benchgate.ServeFile{
		File:     benchgate.New[Result]("Scheduling-service load generation (closed loop): cold and cache-hit throughput and latency per worker count, plus the cache-hit speedup on one mid-scale instance. Baseline is preserved across runs; delete this file to re-baseline. Cold throughput is compute-bound and only scales with workers when the host has as many CPUs (see \"cpus\")."),
		SpeedupX: map[string]benchgate.ServeSpeedup{},
	}
	out.Current = current
	prev, _, err := benchgate.Read[benchgate.ServeFile](path)
	if err != nil {
		return err
	}
	out.Update(prev.File, os.Stderr)
	for name, cur := range out.Current {
		base := out.Baseline[name]
		var sp benchgate.ServeSpeedup
		if base.ColdSchedPerSec > 0 && cur.ColdSchedPerSec > 0 {
			sp.ColdThroughput = cur.ColdSchedPerSec / base.ColdSchedPerSec
		}
		if base.WarmHitNs > 0 && cur.WarmHitNs > 0 {
			sp.WarmHitNs = base.WarmHitNs / cur.WarmHitNs
		}
		if sp != (benchgate.ServeSpeedup{}) {
			out.SpeedupX[name] = sp
		}
	}
	return benchgate.Save(path, out)
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
	if err := benchgate.PortfolioChecks(port, name); err != nil {
		return err
	}
	fmt.Println("portfolio smoke passed")
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

// drive pushes rounds×reqs through submit with `concurrency` closed-loop
// submitters and returns the wall time and per-request latencies.
func drive(submit func(locmps.ServiceRequest) error, reqs []locmps.ServiceRequest, rounds, concurrency int) (time.Duration, []time.Duration, error) {
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
			t0 := time.Now()
			if err := submit(reqs[i%len(reqs)]); err != nil {
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

// inProcess submits to a service directly; overHTTP submits through a
// fleet client.
func inProcess(svc *locmps.Service) func(locmps.ServiceRequest) error {
	return func(req locmps.ServiceRequest) error { _, err := svc.Schedule(req); return err }
}

func overHTTP(c *locmps.Client) func(locmps.ServiceRequest) error {
	return func(req locmps.ServiceRequest) error { _, err := c.Schedule(context.Background(), req); return err }
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
	coldWall, coldLats, err := drive(inProcess(svc), reqs, 1, concurrency)
	if err != nil {
		return Result{}, err
	}
	warmWall, warmLats, err := drive(inProcess(svc), reqs, cfg.warmRounds, concurrency)
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
		ColdP50Ns:       float64(benchgate.Quantile(coldLats, 50)),
		ColdP99Ns:       float64(benchgate.Quantile(coldLats, 99)),
		WarmSchedPerSec: float64(len(warmLats)) / warmWall.Seconds(),
		WarmP50Ns:       float64(benchgate.Quantile(warmLats, 50)),
		WarmP99Ns:       float64(benchgate.Quantile(warmLats, 99)),
		Rejected:        st.Rejected,
		Cancelled:       st.Cancelled,
	}, nil
}

// oneWorker configures the single-instance cases' service: one worker,
// shallow queue, small cache.
var oneWorker = locmps.ServiceConfig{Shards: 1, WorkersPerShard: 1, QueueDepth: 8, CacheEntries: 16}

// hitSpeedupCase times one mid-scale instance cold, then repeatedly as a
// cache hit, and reports cold / p50(hit).
func hitSpeedupCase(cfg config) (Result, error) {
	reqs, err := stream(1, cfg.hitTasks, cfg.hitProcs, 5000)
	if err != nil {
		return Result{}, err
	}
	req := reqs[0]
	svc := locmps.NewService(oneWorker)
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
	warmNs := float64(benchgate.Quantile(hits, 50))
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
	svc := locmps.NewService(oneWorker)
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
// it on the committed file). A warm call takes tens of microseconds, so
// each p50 is taken over many single calls: a few preempted calls then move
// neither side. The two variants alternate call by call, so host noise
// lasting longer than one call lands on both sides of the ratio. Every
// routed call must hit the winner cache.
func portfolioCase(cfg config) (Result, error) {
	reqs, err := stream(1, cfg.hitTasks, cfg.hitProcs, 15000)
	if err != nil {
		return Result{}, err
	}
	raceReq := reqs[0]
	raceReq.Portfolio = locmps.DefaultPortfolio()
	svc := locmps.NewService(oneWorker)
	defer svc.Close()
	ctx := context.Background()

	t0 := time.Now()
	cold, err := svc.Schedule(raceReq)
	if err != nil {
		return Result{}, err
	}
	raceNs := float64(time.Since(t0))
	winner := cold.Algorithm
	// Collect the race's garbage now, so that its GC cycles are not billed
	// to the timed calls.
	runtime.GC()

	directReq := reqs[0]
	directReq.Options = locmps.ServiceOptions{Algorithm: winner}
	reps := cfg.portReps
	if reps < 1 {
		reps = 1
	}
	budget := func() locmps.Budget {
		return locmps.Budget{Deadline: time.Now().Add(time.Minute)}
	}
	// call times one call of req; a winner-routed call must reproduce the
	// race's makespan.
	call := func(req locmps.ServiceRequest) (time.Duration, error) {
		t0 := time.Now()
		ar, err := svc.ScheduleAnytime(ctx, req, budget())
		if err == nil && req.Portfolio != nil && ar.Schedule.Makespan != cold.Makespan {
			err = fmt.Errorf("portfolio case: winner-routed makespan %.6g != race's %.6g",
				ar.Schedule.Makespan, cold.Makespan)
		}
		return time.Since(t0), err
	}
	var routed, direct []time.Duration
	for i := 0; i < reps; i++ {
		r, err := call(raceReq)
		if err != nil {
			return Result{}, err
		}
		d, err := call(directReq)
		if err != nil {
			return Result{}, err
		}
		routed, direct = append(routed, r), append(direct, d)
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
		WinnerRoutedP50Ns: float64(benchgate.Quantile(routed, 50)),
		DirectP50Ns:       float64(benchgate.Quantile(direct, 50)),
		WinnerHits:        st.WinnerHits,
	}
	if r.DirectP50Ns > 0 {
		r.WarmOverheadX = r.WinnerRoutedP50Ns / r.DirectP50Ns
	}
	return r, nil
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
	if _, _, err := drive(inProcess(ref), reqs, 1, 4); err != nil {
		return Result{}, err
	}
	inprocWall, _, err := drive(inProcess(ref), reqs, cfg.netRounds, 4)
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

	coldWall, coldLats, err := drive(overHTTP(client), reqs, 1, 4)
	if err != nil {
		return Result{}, err
	}
	warmWall, warmLats, err := drive(overHTTP(client), reqs, cfg.netRounds, 4)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Distinct:              cfg.netDistinct,
		NetColdSchedPerSec:    float64(len(coldLats)) / coldWall.Seconds(),
		NetColdP50Ns:          float64(benchgate.Quantile(coldLats, 50)),
		NetColdP99Ns:          float64(benchgate.Quantile(coldLats, 99)),
		NetWarmSchedPerSec:    float64(len(warmLats)) / warmWall.Seconds(),
		NetWarmP50Ns:          float64(benchgate.Quantile(warmLats, 50)),
		NetWarmP99Ns:          float64(benchgate.Quantile(warmLats, 99)),
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
		UnhedgedP99Ns: float64(benchgate.Quantile(slowLats, 99)),
		HedgedP99Ns:   float64(benchgate.Quantile(fastLats, 99)),
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
	coldWall, coldLats, err := drive(overHTTP(client), reqs, 1, 4)
	if err != nil {
		return err
	}
	warmWall, warmLats, err := drive(overHTTP(client), reqs, cfg.warmRounds, 4)
	if err != nil {
		return err
	}
	fmt.Printf("first pass %8.2f sched/s (p50 %v, p99 %v)   replay %9.0f sched/s (p50 %v, p99 %v)\n",
		float64(len(coldLats))/coldWall.Seconds(), benchgate.Quantile(coldLats, 50), benchgate.Quantile(coldLats, 99),
		float64(len(warmLats))/warmWall.Seconds(), benchgate.Quantile(warmLats, 50), benchgate.Quantile(warmLats, 99))

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
