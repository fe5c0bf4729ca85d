package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

// testGraph generates a deterministic synthetic workload; distinct seeds
// give distinct fingerprints.
func testGraph(t testing.TB, tasks int, seed int64) *model.TaskGraph {
	t.Helper()
	p := synth.DefaultParams()
	p.Tasks = tasks
	p.CCR = 0.25
	p.Seed = seed
	tg, err := synth.Generate(p)
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return tg
}

func testClusterP(p int) model.Cluster {
	return model.Cluster{P: p, Bandwidth: 12.5e6}
}

// equalSchedules compares everything the scheduler decides, bit for bit.
// SchedulingTime is wall clock and deliberately excluded. m is the graph's
// edge count (for the per-edge communication charges).
func equalSchedules(a, b *schedule.Schedule, m int) string {
	if a.Algorithm != b.Algorithm {
		return fmt.Sprintf("Algorithm %q != %q", a.Algorithm, b.Algorithm)
	}
	if a.Cluster != b.Cluster {
		return "Cluster differs"
	}
	if a.Makespan != b.Makespan {
		return fmt.Sprintf("Makespan %v != %v", a.Makespan, b.Makespan)
	}
	if len(a.Placements) != len(b.Placements) {
		return "placement count differs"
	}
	for t := range a.Placements {
		pa, pb := a.Placements[t], b.Placements[t]
		if len(pa.Procs) != len(pb.Procs) {
			return fmt.Sprintf("task %d: proc count %d != %d", t, len(pa.Procs), len(pb.Procs))
		}
		for i := range pa.Procs {
			if pa.Procs[i] != pb.Procs[i] {
				return fmt.Sprintf("task %d: procs differ", t)
			}
		}
		if pa.Start != pb.Start || pa.Finish != pb.Finish ||
			pa.DataReady != pb.DataReady || pa.CommTime != pb.CommTime {
			return fmt.Sprintf("task %d: times differ", t)
		}
	}
	for id := 0; id < m; id++ {
		if a.CommID(id) != b.CommID(id) {
			return fmt.Sprintf("edge %d: comm charge %v != %v", id, a.CommID(id), b.CommID(id))
		}
	}
	return ""
}

// directRun computes the reference schedule the old way: a fresh scheduler,
// no service, no shared state.
func directRun(t *testing.T, req Request) *schedule.Schedule {
	t.Helper()
	o := req.Options.normalized()
	alg, err := buildScheduler(o)
	if err != nil {
		t.Fatalf("buildScheduler: %v", err)
	}
	var s *schedule.Schedule
	if lm, ok := alg.(interface {
		ScheduleDual(*model.TaskGraph, model.Cluster) (*schedule.Schedule, error)
	}); ok && o.Dual {
		s, err = lm.ScheduleDual(req.Graph, req.Cluster)
	} else {
		s, err = alg.Schedule(req.Graph, req.Cluster)
	}
	if err != nil {
		t.Fatalf("direct %s: %v", o.Algorithm, err)
	}
	return s
}

// TestServiceBitIdenticalColdAndHit is the differential test from the issue:
// a service cold run (on a pooled scratch that has already served other
// graphs) and a subsequent cache hit must both be bit-identical to a direct
// run with a fresh scheduler. Mixed sizes force the scratch to regrow
// between runs; mixed algorithms exercise every dispatch path.
func TestServiceBitIdenticalColdAndHit(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 32})
	defer svc.Close()

	reqs := []Request{
		{Graph: testGraph(t, 20, 1), Cluster: testClusterP(16)},
		{Graph: testGraph(t, 8, 2), Cluster: testClusterP(8)},   // shrink scratch
		{Graph: testGraph(t, 30, 3), Cluster: testClusterP(24)}, // regrow scratch
		{Graph: testGraph(t, 20, 1), Cluster: testClusterP(16), Options: Options{Algorithm: "LoC-MPS-NoBF"}},
		{Graph: testGraph(t, 20, 1), Cluster: testClusterP(16), Options: Options{Dual: true}},
		{Graph: testGraph(t, 20, 1), Cluster: testClusterP(16), Options: Options{Algorithm: "CPR"}},
		{Graph: testGraph(t, 20, 1), Cluster: testClusterP(16), Options: Options{Algorithm: "DATA"}},
	}
	for i, req := range reqs {
		want := directRun(t, req)
		cold, err := svc.Schedule(req)
		if err != nil {
			t.Fatalf("req %d cold: %v", i, err)
		}
		if diff := equalSchedules(want, cold, req.Graph.M()); diff != "" {
			t.Errorf("req %d (%s): cold service run differs from direct run: %s",
				i, req.Options.normalized().Algorithm, diff)
		}
		hit, err := svc.Schedule(req)
		if err != nil {
			t.Fatalf("req %d hit: %v", i, err)
		}
		if diff := equalSchedules(want, hit, req.Graph.M()); diff != "" {
			t.Errorf("req %d (%s): cache hit differs from direct run: %s",
				i, req.Options.normalized().Algorithm, diff)
		}
	}
	st := svc.Stats()
	if st.CacheHits != uint64(len(reqs)) {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, len(reqs))
	}
	if st.Scheduled != uint64(len(reqs)) {
		t.Errorf("Scheduled = %d, want %d", st.Scheduled, len(reqs))
	}
	if st.Completed != 2*uint64(len(reqs)) {
		t.Errorf("Completed = %d, want %d", st.Completed, 2*len(reqs))
	}
}

// TestServiceSearchWorkersBitIdentical sets the deprecated
// Config.SearchWorkers and checks it is ignored: Stats reports 0 and cold
// runs stay bit-identical to a direct run.
func TestServiceSearchWorkersBitIdentical(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 32, SearchWorkers: 4})
	defer svc.Close()
	if got := svc.Stats().SearchWorkers; got != 0 {
		t.Fatalf("Stats().SearchWorkers = %d, want 0", got)
	}
	reqs := []Request{
		{Graph: testGraph(t, 24, 5), Cluster: testClusterP(16)},
		{Graph: testGraph(t, 12, 6), Cluster: testClusterP(8)},
		{Graph: testGraph(t, 24, 5), Cluster: testClusterP(16), Options: Options{Algorithm: "LoC-MPS-NoBF"}},
	}
	for i, req := range reqs {
		want := directRun(t, req)
		got, err := svc.Schedule(req)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if diff := equalSchedules(want, got, req.Graph.M()); diff != "" {
			t.Errorf("req %d: service run differs from direct run: %s", i, diff)
		}
	}
}

// gateProfile is a linear profile that, once armed (budget > 0), stalls any
// caller that exceeds the budget until the gate channel is closed. The
// budget is set after graph construction and one reference fingerprint, so
// caller-side fingerprinting stays fast and only the worker's scheduling
// run blocks. entered is closed on first stall so tests can wait for the
// worker to be provably inside a run.
type gateProfile struct {
	t1        float64
	calls     *atomic.Int64
	budget    *atomic.Int64 // 0 = not armed yet
	gate      chan struct{}
	entered   chan struct{}
	enteredCl *atomic.Bool
	trap      *atomic.Bool // panic after the gate opens, if set
}

func (p gateProfile) Time(n int) float64 {
	if n < 1 {
		n = 1
	}
	c := p.calls.Add(1)
	if b := p.budget.Load(); b > 0 && c > b {
		if p.enteredCl.CompareAndSwap(false, true) {
			close(p.entered)
		}
		<-p.gate
		if p.trap != nil && p.trap.Load() {
			panic("trap profile tripped")
		}
	}
	return p.t1 / float64(n)
}

// gateRequest builds a 2-task request on a gateProfile and arms the budget
// so that the service's own fingerprint pass is the last unblocked read. It
// returns the request's key as well — recomputing it after arming would eat
// the budget and stall the caller instead of the worker.
func gateRequest(t *testing.T, t1 float64, cluster model.Cluster, trap *atomic.Bool) (Request, gateProfile) {
	t.Helper()
	prof := gateProfile{
		t1:        t1,
		calls:     new(atomic.Int64),
		budget:    new(atomic.Int64),
		gate:      make(chan struct{}),
		entered:   make(chan struct{}),
		enteredCl: new(atomic.Bool),
		trap:      trap,
	}
	tg, err := model.NewTaskGraph([]model.Task{{Profile: prof}, {Profile: prof}},
		[]model.Edge{{From: 0, To: 1, Volume: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: tg, Cluster: cluster}
	before := prof.calls.Load()
	if _, err := req.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	perFingerprint := prof.calls.Load() - before
	// Allow exactly one more fingerprint pass (Schedule's); the next read —
	// the worker's — stalls.
	prof.budget.Store(prof.calls.Load() + perFingerprint)
	return req, prof
}

// TestServiceConcurrentCoalescing drives 64 concurrent requests over 8
// distinct keys and mixed algorithms through a 2-worker service (run under
// -race in CI). Both workers are first parked inside gated runs so every
// flood request is admitted while its leader is still in flight: exactly
// one leader per distinct key, every duplicate coalesced.
func TestServiceConcurrentCoalescing(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 64, CacheEntries: 64})
	defer svc.Close()
	cluster := testClusterP(8)

	// Park every worker inside a gated run.
	var gates []gateProfile
	var gateWG sync.WaitGroup
	for w := range svc.Stats().Workers {
		req, prof := gateRequest(t, 10+float64(w), cluster, nil)
		gates = append(gates, prof)
		gateWG.Add(1)
		go func(req Request) {
			defer gateWG.Done()
			if _, err := svc.Schedule(req); err != nil {
				t.Errorf("gate request: %v", err)
			}
		}(req)
	}
	for _, prof := range gates {
		<-prof.entered // worker is provably stalled inside the run
	}

	algs := []string{"", "CPR", "DATA", ""}
	distinct := make([]Request, 8)
	for i := range distinct {
		distinct[i] = Request{
			Graph:   testGraph(t, 16, int64(100+i)),
			Cluster: cluster,
			Options: Options{Algorithm: algs[i%len(algs)]},
		}
	}
	want := make([]*schedule.Schedule, len(distinct))
	for i, req := range distinct {
		want[i] = directRun(t, req)
	}

	const goroutines = 64
	start := make(chan struct{})
	errs := make([]error, goroutines)
	diffs := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			req := distinct[g%len(distinct)]
			got, err := svc.Schedule(req)
			if err != nil {
				errs[g] = err
				return
			}
			diffs[g] = equalSchedules(want[g%len(distinct)], got, req.Graph.M())
		}(g)
	}
	close(start)

	// With the workers parked no in-flight entry can complete, so all 56
	// duplicates must register as coalesced before we open the gates.
	wantCoalesced := uint64(goroutines - len(distinct))
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Coalesced < wantCoalesced; {
		if time.Now().After(deadline) {
			t.Fatalf("Coalesced = %d after 10s, want %d", svc.Stats().Coalesced, wantCoalesced)
		}
		time.Sleep(time.Millisecond)
	}
	for _, prof := range gates {
		close(prof.gate)
	}
	wg.Wait()
	gateWG.Wait()

	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if diffs[g] != "" {
			t.Errorf("goroutine %d: result differs from direct run: %s", g, diffs[g])
		}
	}
	st := svc.Stats()
	total := uint64(goroutines + len(gates))
	if st.Requests != total {
		t.Errorf("Requests = %d, want %d", st.Requests, total)
	}
	if st.Coalesced != wantCoalesced {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, wantCoalesced)
	}
	if got := st.CacheHits + st.Coalesced + st.Scheduled; got != total {
		t.Errorf("hits(%d) + coalesced(%d) + cold(%d) = %d, want %d",
			st.CacheHits, st.Coalesced, st.Scheduled, got, total)
	}
	if st.Completed != total {
		t.Errorf("Completed = %d, want %d", st.Completed, total)
	}
	if st.Failed != 0 || st.Rejected != 0 {
		t.Errorf("Failed = %d, Rejected = %d, want 0", st.Failed, st.Rejected)
	}
	if st.Scheduled != uint64(len(distinct)+len(gates)) {
		t.Errorf("Scheduled = %d cold runs for %d distinct requests", st.Scheduled, len(distinct)+len(gates))
	}
}

// TestCacheEntriesIsExact: CacheEntries bounds the whole result cache, not
// a per-worker share, so N distinct keys fit a cache of N entries on a
// two-worker service: N repeats are all hits and nothing is evicted.
func TestCacheEntriesIsExact(t *testing.T) {
	const n = 8
	svc := New(Config{Workers: 2, CacheEntries: n})
	defer svc.Close()
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Graph: testGraph(t, 6, int64(700+i)), Cluster: testClusterP(4), Options: Options{Algorithm: "CPR"}}
		if _, err := svc.Schedule(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range reqs {
		if _, err := svc.Schedule(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.CacheHits != n || st.Evictions != 0 || st.CacheEntries != n {
		t.Fatalf("CacheHits = %d, Evictions = %d, CacheEntries = %d; want %d, 0, %d", st.CacheHits, st.Evictions, st.CacheEntries, n, n)
	}
}

// TestServiceCacheHitIsDeepCopy: mutating a returned schedule must not
// corrupt the cache — later hits still match the direct run bit for bit.
func TestServiceCacheHitIsDeepCopy(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8})
	defer svc.Close()

	req := Request{Graph: testGraph(t, 16, 7), Cluster: testClusterP(8)}
	want := directRun(t, req)

	first, err := svc.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize every part of the caller's copy.
	first.Makespan = -1
	first.Algorithm = "corrupted"
	for i := range first.Placements {
		first.Placements[i].Start = -99
		for j := range first.Placements[i].Procs {
			first.Placements[i].Procs[j] = 9999
		}
	}
	for id := 0; id < req.Graph.M(); id++ {
		first.SetCommID(id, -42)
	}

	second, err := svc.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if diff := equalSchedules(want, second, req.Graph.M()); diff != "" {
		t.Errorf("cache entry was mutated through a returned copy: %s", diff)
	}
	if st := svc.Stats(); st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1 (second call must be a hit)", st.CacheHits)
	}
}

// slowProfile behaves like a linear profile but, once per test, holds the
// worker inside a scheduling run for `hold` so the test can observe a full
// queue deterministically. The sleep only triggers past `budget` calls —
// graph construction and fingerprinting (caller side) stay fast.
type slowProfile struct {
	t1     float64
	calls  *atomic.Int64
	budget int64
	hold   time.Duration
	slept  *atomic.Bool
}

func (p slowProfile) Time(n int) float64 {
	if n < 1 {
		n = 1
	}
	if p.calls.Add(1) > p.budget && p.slept.CompareAndSwap(false, true) {
		time.Sleep(p.hold)
	}
	return p.t1 / float64(n)
}

// TestServiceOverload: with one worker and a queue of one, concurrent
// distinct requests beyond worker+queue must fail fast with ErrOverloaded,
// and the service must keep serving afterwards.
func TestServiceOverload(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 8})
	defer svc.Close()

	cluster := testClusterP(4)
	// The slow request's worker run blocks for `hold`; its construction
	// (1 Time call) and the service's fingerprint (P calls) stay fast.
	var calls atomic.Int64
	var slept atomic.Bool
	prof := slowProfile{t1: 10, calls: &calls, budget: 16, hold: 400 * time.Millisecond, slept: &slept}
	slowTG, err := model.NewTaskGraph([]model.Task{{Profile: prof}, {Profile: prof}},
		[]model.Edge{{From: 0, To: 1, Volume: 1e6}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Schedule(Request{Graph: slowTG, Cluster: cluster}); err != nil {
			t.Errorf("slow request: %v", err)
		}
	}()
	// Wait until the worker is inside the slow run.
	for !slept.Load() {
		time.Sleep(time.Millisecond)
	}
	// Fill the queue with one distinct request...
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Schedule(Request{Graph: testGraph(t, 8, 50), Cluster: cluster}); err != nil {
			t.Errorf("queued request: %v", err)
		}
	}()
	for svc.Stats().Requests < 2 || len(svc.queue) == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...so the next distinct request must be shed immediately.
	over := Request{Graph: testGraph(t, 8, 51), Cluster: cluster}
	if _, err := svc.Schedule(over); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded while saturated, got %v", err)
	}
	wg.Wait()

	// Once drained, the previously shed request succeeds.
	if _, err := svc.Schedule(over); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestServicePanicIsolation: a panicking profile implementation must surface
// as an error on the submitting request — not kill the worker or the
// process — and the service must keep serving afterwards. A gated profile
// parks the worker inside the run, then the trap is sprung.
func TestServicePanicIsolation(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8})
	defer svc.Close()

	trap := new(atomic.Bool)
	req, prof := gateRequest(t, 10, testClusterP(4), trap)

	done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(req)
		done <- err
	}()
	<-prof.entered // worker is inside the scheduling run
	trap.Store(true)
	close(prof.gate) // release it straight into the panic
	err := <-done
	if err == nil {
		t.Fatal("panicking scheduler run returned no error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error does not identify the panic: %v", err)
	}

	// The worker survived: a healthy request still schedules.
	if _, err := svc.Schedule(Request{Graph: testGraph(t, 8, 60), Cluster: testClusterP(4)}); err != nil {
		t.Fatalf("service did not survive the panic: %v", err)
	}
	st := svc.Stats()
	if st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
}

// TestServiceRejectsBadRequests: validation errors surface at admission.
func TestServiceRejectsBadRequests(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8})
	defer svc.Close()

	if _, err := svc.Schedule(Request{Cluster: testClusterP(4)}); err == nil {
		t.Error("empty graph accepted")
	}
	tg := testGraph(t, 8, 70)
	if _, err := svc.Schedule(Request{Graph: tg, Cluster: model.Cluster{}}); err == nil {
		t.Error("invalid cluster accepted")
	}
	if _, err := svc.Schedule(Request{Graph: tg, Cluster: testClusterP(4),
		Options: Options{Algorithm: "NoSuchAlg"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if st := svc.Stats(); st.Scheduled != 0 {
		t.Errorf("bad requests reached a worker: Scheduled = %d", st.Scheduled)
	}
}

// TestServiceClose: Close is idempotent, later Schedule calls fail with
// ErrClosed, and in-flight work completes.
func TestServiceClose(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 4, CacheEntries: 8})
	req := Request{Graph: testGraph(t, 8, 80), Cluster: testClusterP(4)}
	if _, err := svc.Schedule(req); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Schedule(req); !errors.Is(err, ErrClosed) {
		t.Errorf("Schedule after Close = %v, want ErrClosed", err)
	}
}

// TestServiceStatsLatency: completions populate the latency window.
func TestServiceStatsLatency(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8})
	defer svc.Close()
	req := Request{Graph: testGraph(t, 12, 90), Cluster: testClusterP(8)}
	for i := 0; i < 3; i++ {
		if _, err := svc.Schedule(req); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.P50 <= 0 || st.P99 <= 0 {
		t.Errorf("latency quantiles not populated: p50=%v p99=%v", st.P50, st.P99)
	}
	if st.P99 < st.P50 {
		t.Errorf("p99 (%v) < p50 (%v)", st.P99, st.P50)
	}
	if st.Throughput() <= 0 {
		t.Error("Throughput() = 0 after completions")
	}
	if st.Uptime <= 0 {
		t.Error("Uptime not populated")
	}
}

// Interface conformance: the service's admission check and the registry's
// dispatch must agree on every registered algorithm name.
func TestServiceAcceptsEveryRegisteredAlgorithm(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 32})
	defer svc.Close()
	tg := testGraph(t, 8, 95)
	// Every ByName-registered algorithm except OPT (exhaustive; toy-only).
	names := []string{"LoC-MPS", "LoC-MPS-NoBF", "iCASLB", "CPR", "CPA", "TASK", "DATA", "M-HEFT"}
	for _, name := range names {
		req := Request{Graph: tg, Cluster: testClusterP(4), Options: Options{Algorithm: name}}
		if _, err := svc.Schedule(req); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
