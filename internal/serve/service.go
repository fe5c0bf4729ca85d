package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"locmps/internal/core"
	"locmps/internal/latring"
	"locmps/internal/portfolio"
	"locmps/internal/sched"
	"locmps/internal/schedule"
)

// ErrOverloaded is returned when the service's job queue is full: the
// service applies backpressure instead of buffering unboundedly. Callers
// decide whether to retry, shed or report.
var ErrOverloaded = errors.New("serve: overloaded: job queue full")

// ErrClosed is returned by Schedule after Close.
var ErrClosed = errors.New("serve: service closed")

// ErrAnytimeUnsupported is returned by ScheduleAnytime for requests the
// anytime search cannot serve: MaxIterations budgets count outer rounds of
// the LoC-MPS search, so they require a LoC-MPS-family single-engine
// request (baselines have no iterative search to truncate; a portfolio
// races engines with different round semantics), and Dual runs two
// searches whose budget split is undefined. Wall-clock Deadline budgets
// are accepted for every request kind.
var ErrAnytimeUnsupported = errors.New("serve: anytime budgets require a LoC-MPS-family single search")

// Config sizes the service. The zero value selects sensible defaults.
type Config struct {
	// Shards is the number of independent shards. Requests are routed to a
	// shard by fingerprint; each shard owns a segment of the result cache,
	// its own in-flight (coalescing) table and the lock that admits its
	// requests. Shards do not own workers: every cold run goes through one
	// service-wide job queue. Default: GOMAXPROCS, capped at 8.
	Shards int
	// WorkersPerShard sizes the worker pool: Shards × WorkersPerShard warm
	// worker goroutines drain the shared job queue, so a cold job runs on
	// whichever worker is free, whatever its shard. Every worker pins core
	// scheduler scratch (pools, cost caches, sized buffers) for its whole
	// lifetime, so consecutive runs on one worker start warm. Default 1.
	WorkersPerShard int
	// QueueDepth sizes the shared job queue: it holds Shards × QueueDepth
	// pending cold jobs in total, and an admission beyond that fails fast
	// with ErrOverloaded. Default 64.
	QueueDepth int
	// CacheEntries bounds the total number of cached schedules across all
	// shards (each shard holds CacheEntries/Shards, at least one). Default
	// 1024.
	CacheEntries int
	// L2 is an optional second-level result cache (typically a DiskCache)
	// consulted by the workers after an L1 miss, before running a search,
	// and populated after every successful cacheable run. Warm state in an
	// L2 survives process restarts; a nil L2 disables the tier.
	L2 SecondLevel
	// Deprecated: SearchWorkers is ignored. Every search scans its
	// candidate slots serially; the field remains only because the frozen
	// e2ebench module still sets it.
	SearchWorkers int
}

// SecondLevel is the second-level result cache consulted between the
// in-memory L1 and a cold search. Get returns the schedule stored under the
// fingerprint (decoded against the request's graph), its truncation flag
// and whether the entry existed; Put stores a freshly computed result.
// Implementations must be safe for concurrent use and must treat their own
// failures (corruption, IO errors) as misses — the worker falls back to a
// cold run, never to an error.
type SecondLevel interface {
	Get(key Key, req Request) (s *schedule.Schedule, truncated bool, ok bool)
	Put(key Key, req Request, s *schedule.Schedule, truncated bool)
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.WorkersPerShard < 1 {
		c.WorkersPerShard = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 1024
	}
	return c
}

// Service is a concurrent scheduling service over the LoC-MPS kernel and
// the paper's baselines. Schedule is safe for arbitrary concurrent use; the
// heavy lifting happens on a pool of warm workers behind one bounded job
// queue, identical concurrent requests coalesce into one run, and completed
// results are served from a sharded content-addressed LRU cache as deep
// copies bit-identical to a cold run.
type Service struct {
	cfg    Config
	shards []*shard
	// queue is the work-conserving job queue every worker drains; jobs
	// carry their shard for the cache and in-flight bookkeeping. Sends
	// happen under the job's shard lock while that shard is open, and
	// Close closes every shard before closing the queue.
	queue  chan *job
	wg     sync.WaitGroup
	start  time.Time
	closed atomic.Bool

	winners winnerRegistry

	requests       atomic.Uint64
	portfolioRaces atomic.Uint64
	winnerHits     atomic.Uint64
	winnerMisses   atomic.Uint64
	hits           atomic.Uint64
	coalesced      atomic.Uint64
	scheduled      atomic.Uint64
	rejected       atomic.Uint64
	failed         atomic.Uint64
	cancelled      atomic.Uint64
	evictions      atomic.Uint64
	completed      atomic.Uint64
	l2Hits         atomic.Uint64
	l2Misses       atomic.Uint64
	l2Writes       atomic.Uint64
	lat            *latring.Ring
}

type shard struct {
	mu       sync.Mutex
	cache    *lruCache
	inflight map[Key]*call
	closed   bool
}

// call is one in-flight cold run: the leader enqueued it, followers block
// on done. sched/truncated/err are written exactly once before done is
// closed.
type call struct {
	done      chan struct{}
	sched     *schedule.Schedule
	truncated bool
	err       error
}

type job struct {
	req Request
	key Key
	sh  *shard // owns key's cache segment and in-flight entry
	c   *call
	// ctx is the leader's context: the worker aborts the run (or skips it
	// entirely if still queued) once it is done, freeing the slot for work
	// somebody still wants.
	ctx context.Context
	// deadline is the wall-clock anytime budget; zero means none. Deadline
	// runs stop at a wall-clock-dependent round, so they are uncacheable
	// and never coalesced (cacheable is false for them).
	deadline time.Time
	// cacheable says whether the result may enter the result cache and
	// whether an inflight entry was registered under key.
	cacheable bool
}

// New starts the service's worker goroutines and returns it. Call Close to
// drain and stop them.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		start: time.Now(),
		lat:   latring.New(latWindow),
		queue: make(chan *job, cfg.Shards*cfg.QueueDepth),
	}
	s.winners.init(winnerCap)
	perShard := cfg.CacheEntries / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			cache:    newLRU(perShard),
			inflight: make(map[Key]*call),
		})
	}
	for w := 0; w < cfg.Shards*cfg.WorkersPerShard; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// shardFor routes a fingerprint to its shard.
func (s *Service) shardFor(k Key) *shard {
	return s.shards[binary.LittleEndian.Uint64(k[:8])%uint64(len(s.shards))]
}

// Schedule resolves one request, blocking until the schedule is available:
// served from the result cache (a deep copy, bit-identical to a cold run),
// by joining an identical in-flight request, or by a cold run on the first
// free warm worker. It fails fast with ErrOverloaded when the job queue is
// full and with ErrClosed after Close. Schedule is ScheduleContext
// with a background context.
func (s *Service) Schedule(req Request) (*schedule.Schedule, error) {
	return s.ScheduleContext(context.Background(), req)
}

// ScheduleContext is Schedule with cooperative cancellation: once ctx is
// done the caller returns ctx.Err() immediately, and the cold run it was
// waiting on is aborted (or skipped, if still queued) so the worker slot
// goes to a request somebody still wants. A caller coalesced onto another
// request's run whose owner cancelled is transparently re-admitted as its
// own leader.
func (s *Service) ScheduleContext(ctx context.Context, req Request) (*schedule.Schedule, error) {
	started := time.Now()
	res, _, err := s.resolve(ctx, req, time.Time{})
	if err != nil {
		return nil, err
	}
	return s.finish(res, started)
}

// ScheduleAnytime resolves one request under an anytime budget (see
// core.Budget), returning the best-so-far schedule with its certified
// quality bound. MaxIterations budgets are deterministic: they are folded
// into the request's fingerprinted options, so equal budgeted requests
// cache and coalesce exactly like full runs; they require a LoC-MPS-family
// single-engine request (Dual and portfolio requests, and the baselines,
// fail with ErrAnytimeUnsupported). Deadline budgets depend on wall clock:
// those runs keep queue admission (and its ErrOverloaded backpressure) but
// bypass the cache and coalescing — every call pays for its own run and no
// wall-clock-truncated result is ever replayed to a later caller. Any
// request kind accepts a Deadline: LoC-MPS-family searches and portfolio
// races truncate to best-so-far at the deadline, while a one-shot baseline
// simply runs fresh and uncached (the deadline does not cut it short) —
// which is exactly what a load driver measuring true cold latency wants.
func (s *Service) ScheduleAnytime(ctx context.Context, req Request, b core.Budget) (*core.AnytimeResult, error) {
	o := req.Options.normalized()
	if b.MaxIterations > 0 {
		if !locMPSFamily(o.Algorithm) || o.Dual || req.portfolio() {
			return nil, ErrAnytimeUnsupported
		}
		req.Options.MaxIterations = b.MaxIterations
	}
	if o.Dual {
		return nil, ErrAnytimeUnsupported
	}
	started := time.Now()
	res, truncated, err := s.resolve(ctx, req, b.Deadline)
	if err != nil {
		return nil, err
	}
	// The bound is a property of the instance, cheap next to a search;
	// recomputing it here serves cache hits without storing bounds.
	lb, err := core.LowerBound(req.Graph, req.Cluster)
	if err != nil {
		return nil, err
	}
	clone, err := s.finish(res, started)
	if err != nil {
		return nil, err
	}
	return core.NewAnytimeResult(clone, lb, truncated), nil
}

// resolve admits one request and blocks until a result is available,
// retrying admission when a run it coalesced onto was cancelled by its
// owner while this caller's ctx is still live.
func (s *Service) resolve(ctx context.Context, req Request, deadline time.Time) (*schedule.Schedule, bool, error) {
	key, err := req.Fingerprint()
	if err != nil {
		return nil, false, err
	}
	// Reject unknown algorithms at admission, not on the worker. Portfolio
	// engine lists were already validated by Fingerprint.
	if !req.portfolio() {
		if _, err := sched.ByName(req.Options.normalized().Algorithm); err != nil {
			return nil, false, err
		}
	}
	s.requests.Add(1)
	sh := s.shardFor(key)
	for {
		res, truncated, err := s.attempt(ctx, sh, key, req, deadline)
		if err != nil && isCtxErr(err) && ctx.Err() == nil {
			// The leader whose run we joined is gone but this caller is
			// not: run it again under our own leadership.
			continue
		}
		return res, truncated, err
	}
}

// attempt makes one pass through cache → coalescing → queue admission and
// waits for the outcome.
func (s *Service) attempt(ctx context.Context, sh *shard, key Key, req Request, deadline time.Time) (*schedule.Schedule, bool, error) {
	cacheable := deadline.IsZero()
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, false, ErrClosed
	}
	var c *call
	if cacheable {
		if cached, truncated, ok := sh.cache.get(key); ok {
			sh.mu.Unlock()
			s.hits.Add(1)
			return cached, truncated, nil
		}
		if waiting, ok := sh.inflight[key]; ok {
			sh.mu.Unlock()
			s.coalesced.Add(1)
			return s.await(ctx, waiting)
		}
	}
	c = &call{done: make(chan struct{})}
	jb := &job{req: req, key: key, sh: sh, c: c, ctx: ctx, deadline: deadline, cacheable: cacheable}
	select {
	case s.queue <- jb:
		if cacheable {
			sh.inflight[key] = c
		}
		sh.mu.Unlock()
	default:
		sh.mu.Unlock()
		s.rejected.Add(1)
		return nil, false, ErrOverloaded
	}
	return s.await(ctx, c)
}

// await blocks on a call until its run completes or the caller's ctx is
// done, whichever is first. An abandoned run finishes (or is skipped) on
// the worker; nobody waits for it.
func (s *Service) await(ctx context.Context, c *call) (*schedule.Schedule, bool, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		s.cancelled.Add(1)
		return nil, false, ctx.Err()
	}
	if c.err != nil {
		return nil, false, c.err
	}
	return c.sched, c.truncated, nil
}

// isCtxErr reports whether err is a context cancellation or deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finish records a successful completion and returns the caller's private
// deep copy of the schedule.
func (s *Service) finish(res *schedule.Schedule, started time.Time) (*schedule.Schedule, error) {
	s.completed.Add(1)
	s.lat.Record(time.Since(started))
	return res.Clone(), nil
}

// worker drains the job queue on a pinned core scratch until the service
// closes. Scheduler instances are cached per effective Options so a request
// mix over few configurations never rebuilds them.
func (s *Service) worker() {
	defer s.wg.Done()
	cw := core.NewWorker()
	defer cw.Close()
	algs := make(map[Options]schedule.Engine)
	for jb := range s.queue {
		res, truncated, err := s.runJob(cw, algs, jb)
		sh := jb.sh
		sh.mu.Lock()
		if jb.cacheable {
			delete(sh.inflight, jb.key)
			if err == nil {
				if sh.cache.add(jb.key, res, truncated) {
					s.evictions.Add(1)
				}
			}
		}
		sh.mu.Unlock()
		switch {
		case err == nil:
			s.scheduled.Add(1)
		case isCtxErr(err):
			// The request was abandoned, not failed; the waiting side
			// already counted the cancellation.
		default:
			s.failed.Add(1)
		}
		jb.c.sched, jb.c.truncated, jb.c.err = res, truncated, err
		close(jb.c.done)
	}
}

// runJob executes one cold scheduling run. A panicking scheduler (or
// profile implementation) must not take the whole service down, so panics
// are converted into errors delivered to the leader and every coalesced
// follower.
func (s *Service) runJob(cw *core.Worker, algs map[Options]schedule.Engine, jb *job) (res *schedule.Schedule, truncated bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, truncated, err = nil, false, fmt.Errorf("serve: scheduler panicked: %v\n%s", v, debug.Stack())
		}
	}()
	// Abandoned while queued: surrender the slot without running anything.
	if err := jb.ctx.Err(); err != nil {
		return nil, false, err
	}
	// Between the L1 miss and a cold search sits the optional second-level
	// cache: a disk hit decodes a previously computed schedule instead of
	// re-running the search, which is what lets warm state survive a
	// restart. Deadline (uncacheable) jobs skip the tier entirely, and a
	// served L2 entry is not written back.
	if jb.cacheable && s.cfg.L2 != nil {
		if cached, truncated, ok := s.cfg.L2.Get(jb.key, jb.req); ok {
			s.l2Hits.Add(1)
			return cached, truncated, nil
		}
		s.l2Misses.Add(1)
		defer func() {
			if err == nil && res != nil {
				s.cfg.L2.Put(jb.key, jb.req, res, truncated)
				s.l2Writes.Add(1)
			}
		}()
	}
	if jb.req.portfolio() {
		return s.runPortfolio(cw, jb)
	}
	o := jb.req.Options.normalized()
	// The budget is per-run state, not a scheduler configuration: strip it
	// from the instance-cache key so a budget sweep over one configuration
	// reuses one scheduler.
	cfg := o
	cfg.MaxIterations = 0
	alg, ok := algs[cfg]
	if !ok {
		if alg, err = buildScheduler(cfg); err != nil {
			return nil, false, err
		}
		algs[cfg] = alg
	}
	lm, isLoCMPS := alg.(*core.LoCMPS)
	if !isLoCMPS {
		res, err = alg.ScheduleContext(jb.ctx, jb.req.Graph, jb.req.Cluster)
		return res, false, err
	}
	if o.Dual {
		// ScheduleDual runs two searches concurrently; they draw from
		// the shared scratch pool rather than this worker's pin.
		res, err = lm.ScheduleDual(jb.req.Graph, jb.req.Cluster)
		return res, false, err
	}
	return runOnWorker(cw, jb, lm, core.Budget{MaxIterations: o.MaxIterations, Deadline: jb.deadline})
}

// runOnWorker runs lm's search on the worker's pinned scratch, whose
// content-keyed cost cache stays warm across the worker's requests. A set
// budget switches to the anytime search, which may return a truncated
// best-so-far schedule.
func runOnWorker(cw *core.Worker, jb *job, lm *core.LoCMPS, b core.Budget) (*schedule.Schedule, bool, error) {
	if b.MaxIterations > 0 || !b.Deadline.IsZero() {
		ar, err := cw.ScheduleBudget(jb.ctx, lm, jb.req.Graph, jb.req.Cluster, b)
		if err != nil {
			return nil, false, err
		}
		return ar.Schedule, ar.Truncated, nil
	}
	res, err := cw.ScheduleContext(jb.ctx, lm, jb.req.Graph, jb.req.Cluster)
	return res, false, err
}

// runPortfolio serves one portfolio job. The first time a fingerprint is
// seen the whole engine set races (internal/portfolio) and the winning
// engine's name is committed to the winner cache — in memory and, when the
// L2 implements WinnerStore, on disk, so the routing survives restarts.
// Repeat traffic for the fingerprint runs ONLY the winning engine: one
// search instead of N, on the worker's warm scratch when the winner is
// LoC-MPS-family.
//
// Only untruncated races commit a winner. A deadline-shaped race can crown
// whichever engine happened to finish in time, and replaying that accident
// to later (cacheable, L2-shared) traffic would make a fingerprint's
// content depend on one node's history — the winner cache must only ever
// hold the deterministic winner.
func (s *Service) runPortfolio(cw *core.Worker, jb *job) (*schedule.Schedule, bool, error) {
	if winner, ok := s.lookupWinner(jb.key); ok {
		s.winnerHits.Add(1)
		return s.runWinner(cw, jb, winner)
	}
	s.winnerMisses.Add(1)
	s.portfolioRaces.Add(1)
	res, err := portfolio.Race(jb.ctx, jb.req.Graph, jb.req.Cluster, portfolio.Options{
		Engines:  jb.req.Portfolio,
		Deadline: jb.deadline,
	})
	if err != nil {
		return nil, false, err
	}
	if !res.Truncated {
		s.storeWinner(jb.key, res.Winner)
	}
	return res.Schedule, res.Truncated, nil
}

// runWinner runs the recorded winning engine alone for a portfolio job.
// LoC-MPS-family winners go through the worker's warm scratch exactly like
// single-engine requests; one-shot engines run fresh. The deadline still
// truncates an anytime winner.
func (s *Service) runWinner(cw *core.Worker, jb *job, winner string) (*schedule.Schedule, bool, error) {
	alg, err := sched.ByName(winner)
	if err != nil {
		return nil, false, err // unreachable: lookupWinner validates names
	}
	lm, isLoCMPS := alg.(*core.LoCMPS)
	if !isLoCMPS {
		res, err := alg.ScheduleContext(jb.ctx, jb.req.Graph, jb.req.Cluster)
		return res, false, err
	}
	return runOnWorker(cw, jb, lm, core.Budget{Deadline: jb.deadline})
}

// WinnerStore is the optional persistence hook for the portfolio winner
// cache: an L2 implementation (DiskCache) that also records which engine
// won a fingerprint's race lets winner routing survive restarts the same
// way cached schedules do. Implementations must be safe for concurrent use
// and must treat their own failures as misses.
type WinnerStore interface {
	GetWinner(key Key) (engine string, ok bool)
	PutWinner(key Key, engine string)
}

// lookupWinner consults the in-memory winner cache, falling back to the L2
// winner store (and re-warming memory on a disk hit). A recorded name that
// no longer resolves — a foreign or stale disk record — is a miss, never an
// error: the race simply runs again.
func (s *Service) lookupWinner(k Key) (string, bool) {
	if name, ok := s.winners.get(k); ok {
		return name, true
	}
	if ws, ok := s.cfg.L2.(WinnerStore); ok {
		if name, ok := ws.GetWinner(k); ok && sched.Known(name) {
			s.winners.put(k, name)
			return name, true
		}
	}
	return "", false
}

// storeWinner records a race's deterministic winner in memory and, when
// available, in the L2 winner store.
func (s *Service) storeWinner(k Key, name string) {
	s.winners.put(k, name)
	if ws, ok := s.cfg.L2.(WinnerStore); ok {
		ws.PutWinner(k, name)
	}
}

// winnerCap bounds the in-memory winner cache. Entries are a Key and an
// engine name, so this is purely a routing table, not a result cache;
// evicted fingerprints fall back to the L2 winner store or to a re-race.
const winnerCap = 1024

// winnerRegistry maps portfolio fingerprints to winning engine names.
// Entries are never stale — the fingerprint covers the engine list and the
// instance, and races are deterministic — so eviction is plain FIFO.
type winnerRegistry struct {
	mu   sync.Mutex
	max  int
	m    map[Key]string
	fifo []Key
}

func (r *winnerRegistry) init(max int) {
	r.max = max
	r.m = make(map[Key]string, max)
}

func (r *winnerRegistry) get(k Key) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, ok := r.m[k]
	return name, ok
}

func (r *winnerRegistry) put(k Key, name string) {
	if name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; !ok {
		if len(r.fifo) >= r.max {
			delete(r.m, r.fifo[0])
			r.fifo = r.fifo[1:]
		}
		r.fifo = append(r.fifo, k)
	}
	r.m[k] = name
}

// buildScheduler materializes the scheduler for normalized options.
func buildScheduler(o Options) (schedule.Engine, error) {
	alg, err := sched.ByName(o.Algorithm)
	if err != nil {
		return nil, err
	}
	if lm, ok := alg.(*core.LoCMPS); ok {
		lm.LookAheadDepth = o.LookAheadDepth
		lm.TopFraction = o.TopFraction
		lm.Engine.BlockBytes = o.BlockBytes
	}
	return alg, nil
}

// Close marks every shard closed, drains the queued work and waits for the
// workers to exit. Pending leaders still receive their results; Schedule
// calls arriving afterwards fail with ErrClosed. Close is idempotent.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Once every shard is closed no admission can send again, so the
	// shared queue can close behind the sends already made.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	close(s.queue)
	s.wg.Wait()
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Requests counts Schedule admissions (fingerprint and algorithm
	// already validated). Requests = CacheHits + Coalesced + cold leaders.
	Requests uint64
	// CacheHits counts requests answered from the result cache.
	CacheHits uint64
	// Coalesced counts requests that joined an identical in-flight run
	// instead of triggering their own.
	Coalesced uint64
	// Scheduled counts cold runs executed by workers; Failed counts cold
	// runs that returned an error (or panicked).
	Scheduled uint64
	Failed    uint64
	// Rejected counts admissions refused with ErrOverloaded.
	Rejected uint64
	// Cancelled counts callers that stopped waiting because their context
	// was done; the runs they were waiting on were aborted or skipped.
	Cancelled uint64
	// Completed counts Schedule calls that returned a schedule.
	Completed uint64
	// PortfolioRaces counts full engine races run for portfolio requests
	// whose fingerprint had no recorded winner. WinnerHits counts portfolio
	// jobs routed straight to the cached winning engine (one search instead
	// of N); WinnerMisses counts portfolio jobs that had to race.
	PortfolioRaces, WinnerHits, WinnerMisses uint64
	// Deprecated: SharedStateHits and SharedStateMisses are always 0; no
	// state is shared across workers. The fields remain only because the
	// frozen e2ebench module still reads them.
	SharedStateHits, SharedStateMisses uint64
	// L2Hits counts cacheable cold jobs answered from the second-level
	// cache instead of a search; L2Misses counts the probes that fell
	// through to a real run; L2Writes counts results written back. All
	// zero when no L2 is configured.
	L2Hits, L2Misses, L2Writes uint64
	// Evictions counts LRU evictions; CacheEntries is the current total
	// number of cached schedules.
	Evictions    uint64
	CacheEntries int
	// Shards and Workers describe the running topology.
	Shards, Workers int
	// Deprecated: SearchWorkers is always 0. Searches run serially; the
	// field remains only because the frozen e2ebench module still reads it.
	SearchWorkers int
	// Uptime is the time since New; P50/P99 are request latency quantiles
	// over a sliding window of recent completions.
	Uptime   time.Duration
	P50, P99 time.Duration
}

// Throughput reports completed schedules per second since the service
// started.
func (st Stats) Throughput() float64 {
	if st.Uptime <= 0 {
		return 0
	}
	return float64(st.Completed) / st.Uptime.Seconds()
}

// Stats snapshots the counters. Safe for concurrent use.
func (s *Service) Stats() Stats {
	st := Stats{
		Requests:  s.requests.Load(),
		CacheHits: s.hits.Load(),
		Coalesced: s.coalesced.Load(),
		Scheduled: s.scheduled.Load(),
		Failed:    s.failed.Load(),
		Rejected:  s.rejected.Load(),
		Cancelled: s.cancelled.Load(),
		Completed: s.completed.Load(),
		Evictions: s.evictions.Load(),

		PortfolioRaces: s.portfolioRaces.Load(),
		WinnerHits:     s.winnerHits.Load(),
		WinnerMisses:   s.winnerMisses.Load(),
		L2Hits:         s.l2Hits.Load(),
		L2Misses:       s.l2Misses.Load(),
		L2Writes:       s.l2Writes.Load(),
		Shards:         len(s.shards),
		Workers:        len(s.shards) * s.cfg.WorkersPerShard,
		Uptime:         time.Since(s.start),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.CacheEntries += sh.cache.len()
		sh.mu.Unlock()
	}
	st.P50, st.P99 = s.lat.Quantiles()
	return st
}

// latWindow bounds the latency reservoir: quantiles reflect the most recent
// completions, which is what a load driver watching a phase change wants.
const latWindow = 4096
