package benchgate

// LocmpsFile is the layout of BENCH_locmps.json, written by cmd/benchjson:
// the mid-scale scheduler cases plus the derived speedups, the anytime
// curve and the engine-portfolio cases.
type LocmpsFile struct {
	File[LocmpsResult]
	SpeedupX map[string]Speedup `json:"speedup_vs_baseline"`
	// AnytimeTradeoff is the makespan-vs-latency curve of the anytime
	// search: one point per MaxIterations budget (0 = unbounded),
	// refreshed every run like "current".
	AnytimeTradeoff map[string][]TradeoffPoint `json:"anytime_tradeoff,omitempty"`
	// Portfolio holds the engine-portfolio cases, refreshed every run.
	Portfolio map[string]PortfolioEntry `json:"portfolio,omitempty"`
}

// LocmpsResult is one scheduler benchmark snapshot.
type LocmpsResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Makespan is the scheduled makespan of the instance and RatioVsCPR its
	// ratio to CPR's makespan. Both are pure functions of the input, so a
	// change here means the schedule changed.
	Makespan   float64 `json:"makespan"`
	RatioVsCPR float64 `json:"makespan_ratio_vs_cpr"`
	// Search records what the LoC-MPS search layer did on one run of the
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

// Speedup is baseline/current for the two tracked dimensions.
type Speedup struct {
	Ns     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
}

// TradeoffPoint is one budget point of the anytime curve: the schedule
// quality a MaxIterations budget buys and the scheduling time it costs.
type TradeoffPoint struct {
	// MaxIterations is the outer-round budget; 0 means unbounded (the full
	// search, Truncated always false).
	MaxIterations int     `json:"max_iterations"`
	Ns            float64 `json:"ns"`
	Makespan      float64 `json:"makespan"`
	// QualityRatio is makespan over the instance's certified lower bound
	// (>= 1; smaller is better).
	QualityRatio float64 `json:"quality_ratio"`
	Truncated    bool    `json:"truncated"`
}

// PortfolioEntry is one portfolio case. The race has no deadline, so all of
// it but RaceNs is a deterministic function of the instance.
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

// ServeFile is the layout of BENCH_serve.json, written by cmd/loadgen.
type ServeFile struct {
	File[ServeResult]
	SpeedupX map[string]ServeSpeedup `json:"speedup_vs_baseline"`
}

// ServeSpeedup compares current against baseline: cold throughput as
// current/baseline, warm hit latency as baseline/current (higher is better
// for both).
type ServeSpeedup struct {
	ColdThroughput float64 `json:"cold_throughput,omitempty"`
	WarmHitNs      float64 `json:"warm_hit_ns,omitempty"`
}

// ServeResult is one load-generation snapshot. Each case sets only the
// fields it measures; the rest stay omitted.
type ServeResult struct {
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
	// Deadline case: one instance under a wall-clock anytime budget against
	// its full run. QualityRatio is the anytime makespan over the certified
	// lower bound (>= 1 always); Truncated says whether the budget actually
	// cut the search short on this host.
	DeadlineNs      float64 `json:"deadline_ns,omitempty"`
	AnytimeNs       float64 `json:"anytime_ns,omitempty"`
	AnytimeMakespan float64 `json:"anytime_makespan,omitempty"`
	FullMakespan    float64 `json:"full_makespan,omitempty"`
	QualityRatio    float64 `json:"quality_ratio,omitempty"`
	Truncated       bool    `json:"truncated,omitempty"`
	// Network case: the cold/warm phases over HTTP against self-hosted
	// nodes, and warm network throughput as a fraction of in-process warm
	// throughput on the same request set.
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
	// Admission and disruption counters summed across nodes: Rejected
	// (queue-full), Cancelled (client went away), Shed (HTTP admission
	// control), and the shed fraction of all HTTP schedule attempts.
	Rejected     uint64  `json:"rejected,omitempty"`
	Cancelled    uint64  `json:"cancelled,omitempty"`
	Shed         uint64  `json:"shed,omitempty"`
	ShedFraction float64 `json:"shed_fraction,omitempty"`
	// L2Hits counts second-level (disk) cache hits during the case.
	L2Hits uint64 `json:"l2_hits,omitempty"`
	// Portfolio case: one instance raced cold across the engine portfolio,
	// then warm deadline-bounded repeats routed via the winner cache to the
	// winning engine alone, against the same engine called directly.
	// WarmOverheadX = winner-routed p50 / direct p50, the price of the
	// routing layer (WarmOverheadMax).
	PortfolioEngines  int     `json:"portfolio_engines,omitempty"`
	RaceNs            float64 `json:"race_ns,omitempty"`
	PortfolioWinner   string  `json:"portfolio_winner,omitempty"`
	WinnerRoutedP50Ns float64 `json:"winner_routed_p50_ns,omitempty"`
	DirectP50Ns       float64 `json:"direct_p50_ns,omitempty"`
	WarmOverheadX     float64 `json:"warm_overhead_x,omitempty"`
	WinnerHits        uint64  `json:"winner_hits,omitempty"`
}

// StreamFile is the layout of BENCH_stream.json, written by cmd/streamgen.
type StreamFile struct {
	File[StreamResult]
}

// StreamResult is one streaming case's snapshot. Each case sets only the
// fields it measures; the rest stay omitted.
type StreamResult struct {
	Jobs      int `json:"jobs,omitempty"`
	Events    int `json:"events,omitempty"`
	Searches  int `json:"searches,omitempty"`
	FastPaths int `json:"fast_paths,omitempty"`
	Remaps    int `json:"remaps,omitempty"`
	Failures  int `json:"failures,omitempty"`
	Resizes   int `json:"resizes,omitempty"`

	MaxActiveTasks int `json:"max_active_tasks,omitempty"`
	ReplayedTasks  int `json:"replayed_tasks,omitempty"`

	Makespan float64 `json:"makespan,omitempty"`

	// ReplayRateEPS is events per wall-clock second over the whole replay,
	// the throughput SLO.
	ReplayRateEPS float64 `json:"replay_rate_eps,omitempty"`
	// ReschedP50Ns / ReschedP99Ns are per-search latency quantiles, the
	// tail SLO.
	ReschedP50Ns float64 `json:"resched_p50_ns,omitempty"`
	ReschedP99Ns float64 `json:"resched_p99_ns,omitempty"`

	// IncrementalSearchNs and ScratchSearchNs sum real search time per
	// mode; SpeedupX is their ratio, valid only when EndBitIdentical.
	IncrementalSearchNs float64 `json:"incremental_search_ns,omitempty"`
	ScratchSearchNs     float64 `json:"scratch_search_ns,omitempty"`
	SpeedupX            float64 `json:"speedup_x,omitempty"`
	EndBitIdentical     bool    `json:"end_bit_identical,omitempty"`

	T0Match    bool `json:"t0_match,omitempty"`
	AuditClean bool `json:"audit_clean,omitempty"`

	// USL sweep: offered rates, measured mean active-job loads and achieved
	// replay rates, plus the fitted law. USLPeak is omitted when the fit
	// finds no coherency limit (unbounded peak).
	Lambdas  []float64 `json:"lambdas,omitempty"`
	Loads    []float64 `json:"loads,omitempty"`
	Rates    []float64 `json:"rates,omitempty"`
	USLGamma float64   `json:"usl_gamma,omitempty"`
	USLAlpha float64   `json:"usl_alpha,omitempty"`
	USLBeta  float64   `json:"usl_beta,omitempty"`
	USLPeak  float64   `json:"usl_peak,omitempty"`
}
