package serve

// Service-level tests for the anytime/cancellation surface: context
// cancellation frees worker slots with ctx.Err(), deterministic
// MaxIterations budgets cache and coalesce like full runs (truncation flag
// included), wall-clock deadline runs bypass the cache entirely, and one
// instance under two option sets schedules bit-identically to direct runs.

import (
	"context"
	"errors"
	"testing"
	"time"

	"locmps/internal/core"
)

// TestScheduleContextCancelledWhileQueued fills the single worker with a
// slow run, queues a second request, cancels it, and checks both that the
// caller got ctx.Err() immediately and that the worker never ran the
// abandoned job.
func TestScheduleContextCancelledWhileQueued(t *testing.T) {
	svc := New(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 4})
	defer svc.Close()

	// The blocker is deliberately large (hundreds of milliseconds of
	// search) so the cancel lands while the abandoned request is still
	// queued behind it on the single worker.
	blocker := Request{Graph: testGraph(t, 60, 901), Cluster: testClusterP(64)}
	abandoned := Request{Graph: testGraph(t, 30, 902), Cluster: testClusterP(16)}

	release := make(chan struct{})
	go func() {
		defer close(release)
		if _, err := svc.Schedule(blocker); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()

	// Give the blocker a moment to occupy the worker, then enqueue and
	// cancel the second request.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleContext(ctx, abandoned)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller did not return")
	}
	<-release

	st := svc.Stats()
	if st.Cancelled == 0 {
		t.Errorf("no cancellation counted: %+v", st)
	}
	// The abandoned run must not have produced a schedule: only the
	// blocker's cold run completed.
	if st.Scheduled > 1 {
		t.Errorf("abandoned job was scheduled anyway: %+v", st)
	}
}

// TestScheduleContextPreCancelled: a context dead on arrival never touches
// a worker.
func TestScheduleContextPreCancelled(t *testing.T) {
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Graph: testGraph(t, 12, 903), Cluster: testClusterP(8)}
	if _, err := svc.ScheduleContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAnytimeMaxIterationsCaches: an iteration-bounded request is
// deterministic, so its result (and truncation flag) must be served from
// the result cache on repeat, distinct from the unbudgeted entry of the
// same instance.
func TestAnytimeMaxIterationsCaches(t *testing.T) {
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	ctx := context.Background()
	req := Request{Graph: testGraph(t, 30, 904), Cluster: testClusterP(16)}
	b := core.Budget{MaxIterations: 1}

	first, err := svc.ScheduleAnytime(ctx, req, b)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Truncated {
		t.Skip("instance finished inside one round; budget exercised nothing")
	}
	second, err := svc.ScheduleAnytime(ctx, req, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := equalSchedules(first.Schedule, second.Schedule, len(req.Graph.Edges())); d != "" {
		t.Fatalf("cached budgeted schedule differs: %s", d)
	}
	if !second.Truncated {
		t.Error("truncation flag lost on the cache hit")
	}
	if second.Ratio != first.Ratio || second.LowerBound != first.LowerBound {
		t.Errorf("quality drifted on cache hit: %+v vs %+v", second, first)
	}
	st := svc.Stats()
	if st.CacheHits != 1 || st.Scheduled != 1 {
		t.Errorf("budgeted repeat was not a cache hit: %+v", st)
	}

	// The unbudgeted run is a different fingerprint: a fresh cold run,
	// not a hit on the truncated entry.
	full, err := svc.ScheduleAnytime(ctx, req, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Error("unbudgeted run reported Truncated")
	}
	if full.Schedule.Makespan > first.Schedule.Makespan {
		t.Errorf("full makespan %v worse than truncated %v", full.Schedule.Makespan, first.Schedule.Makespan)
	}
	if st := svc.Stats(); st.Scheduled != 2 {
		t.Errorf("unbudgeted request did not run cold: %+v", st)
	}
}

// TestAnytimeDeadlineBypassesCache: wall-clock-bounded runs are
// uncacheable — two deadline calls must both run cold, and neither may
// leave a cache entry behind for a later unbudgeted request.
func TestAnytimeDeadlineBypassesCache(t *testing.T) {
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	ctx := context.Background()
	req := Request{Graph: testGraph(t, 20, 905), Cluster: testClusterP(16)}

	for i := 0; i < 2; i++ {
		res, err := svc.ScheduleAnytime(ctx, req, core.Budget{Deadline: time.Now().Add(time.Hour)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio < 1 {
			t.Errorf("run %d: quality ratio %v below 1", i, res.Ratio)
		}
	}
	st := svc.Stats()
	if st.Scheduled != 2 || st.CacheHits != 0 || st.Coalesced != 0 {
		t.Errorf("deadline runs were cached or coalesced: %+v", st)
	}
	if st.CacheEntries != 0 {
		t.Errorf("deadline run left %d cache entries behind", st.CacheEntries)
	}
}

// TestAnytimeUnsupported: baselines and Dual have no single iterative
// search to truncate.
func TestAnytimeUnsupported(t *testing.T) {
	svc := New(Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	ctx := context.Background()
	g, c := testGraph(t, 12, 906), testClusterP(8)
	cases := []Options{
		{Algorithm: "CPR"},
		{Dual: true},
	}
	for _, o := range cases {
		req := Request{Graph: g, Cluster: c, Options: o}
		if _, err := svc.ScheduleAnytime(ctx, req, core.Budget{MaxIterations: 1}); !errors.Is(err, ErrAnytimeUnsupported) {
			t.Errorf("%+v: got %v, want ErrAnytimeUnsupported", o, err)
		}
	}
}

// TestSharedStateRegistry: the cross-request shared-state registry is
// gone, so one instance asked for under two option sets runs twice from
// each worker's own warm scratch. Both results must stay bit-identical to
// direct runs, whichever shard each lands on, and the deprecated
// SharedState counters must read 0.
func TestSharedStateRegistry(t *testing.T) {
	svc := New(Config{Shards: 2, WorkersPerShard: 1})
	defer svc.Close()
	g, c := testGraph(t, 30, 907), testClusterP(16)

	// Different LookAheadDepth → different fingerprints: two cold runs of
	// one instance.
	reqs := []Request{
		{Graph: g, Cluster: c},
		{Graph: g, Cluster: c, Options: Options{LookAheadDepth: 10}},
	}
	for i, req := range reqs {
		got, err := svc.Schedule(req)
		if err != nil {
			t.Fatal(err)
		}
		if d := equalSchedules(got, directRun(t, req), len(g.Edges())); d != "" {
			t.Errorf("request %d diverged from a direct run: %s", i, d)
		}
	}
	st := svc.Stats()
	if st.Scheduled != 2 {
		t.Errorf("Scheduled = %d, want 2 cold runs", st.Scheduled)
	}
	if st.SharedStateHits != 0 || st.SharedStateMisses != 0 {
		t.Errorf("deprecated SharedState counters moved: hits %d, misses %d", st.SharedStateHits, st.SharedStateMisses)
	}
}
