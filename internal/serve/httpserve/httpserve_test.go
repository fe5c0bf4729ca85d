package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/serve"
	"locmps/internal/synth"
)

func testGraph(t *testing.T, tasks int, seed int64) *model.TaskGraph {
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

func testRequest(t *testing.T, tasks int, seed int64, P int) serve.Request {
	t.Helper()
	return serve.Request{
		Graph:   testGraph(t, tasks, seed),
		Cluster: model.Cluster{P: P, Bandwidth: 12.5e6, Overlap: true},
	}
}

// newNode starts a service + HTTP node; both are torn down with the test.
func newNode(t *testing.T, cfg serve.Config, scfg ServerConfig) (*serve.Service, *Server, *httptest.Server) {
	t.Helper()
	svc := serve.New(cfg)
	srv := NewServer(svc, scfg)
	node := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		node.Close()
		svc.Close()
	})
	return svc, srv, node
}

func newTestClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// maskedWire renders a schedule's wire form with the one wall-clock field
// (SchedulingTimeNS) zeroed, for byte-level comparison.
func maskedWire(t *testing.T, s *schedule.Schedule, m int) []byte {
	t.Helper()
	w := serve.WireFromSchedule(s, m)
	w.SchedulingTimeNS = 0
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("encoding schedule: %v", err)
	}
	return data
}

// TestDifferentialBitIdentity is the tentpole invariant: a schedule fetched
// over HTTP is byte-for-byte the schedule a local serve.Service produces
// for the same request (wall-clock SchedulingTime aside), and audits clean.
func TestDifferentialBitIdentity(t *testing.T) {
	ref := serve.New(serve.Config{Shards: 2, WorkersPerShard: 1})
	defer ref.Close()
	_, _, node := newNode(t, serve.Config{Shards: 2, WorkersPerShard: 1}, ServerConfig{})
	client := newTestClient(t, ClientConfig{Nodes: []string{node.URL}})
	ctx := t.Context()

	cases := []struct {
		name string
		req  serve.Request
		opts serve.Options
	}{
		{name: "defaults", req: testRequest(t, 20, 1, 16)},
		{name: "knobs", req: testRequest(t, 16, 2, 8), opts: serve.Options{LookAheadDepth: 5, TopFraction: 0.5, BlockBytes: 4096}},
		{name: "cpr", req: testRequest(t, 14, 3, 8), opts: serve.Options{Algorithm: "CPR"}},
		{name: "capped", req: testRequest(t, 18, 4, 16), opts: serve.Options{MaxIterations: 2}},
	}
	for _, tc := range cases {
		tc.req.Options = tc.opts
		got, err := client.Schedule(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: client.Schedule: %v", tc.name, err)
		}
		want, err := ref.Schedule(tc.req)
		if err != nil {
			t.Fatalf("%s: reference Schedule: %v", tc.name, err)
		}
		m := tc.req.Graph.M()
		if g, w := maskedWire(t, got, m), maskedWire(t, want, m); !bytes.Equal(g, w) {
			t.Errorf("%s: HTTP schedule differs from direct service:\n got %s\nwant %s", tc.name, g, w)
		}
		rep := audit.Check(tc.req.Graph, got, audit.Options{BlockBytes: tc.opts.BlockBytes})
		if err := rep.Err(); err != nil {
			t.Errorf("%s: HTTP schedule fails audit: %v", tc.name, err)
		}
	}
}

// TestDifferentialAnytime: iteration-budgeted requests round-trip with
// their truncation flag and quality certificate intact and bit-identical
// schedules.
func TestDifferentialAnytime(t *testing.T) {
	ref := serve.New(serve.Config{Shards: 1, WorkersPerShard: 1})
	defer ref.Close()
	_, _, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	client := newTestClient(t, ClientConfig{Nodes: []string{node.URL}})
	ctx := t.Context()

	req := testRequest(t, 24, 7, 16)
	for _, iters := range []int{1, 3} {
		b := core.Budget{MaxIterations: iters}
		got, err := client.ScheduleAnytime(ctx, req, b)
		if err != nil {
			t.Fatalf("iters=%d: client: %v", iters, err)
		}
		want, err := ref.ScheduleAnytime(ctx, req, b)
		if err != nil {
			t.Fatalf("iters=%d: reference: %v", iters, err)
		}
		if got.Truncated != want.Truncated || got.LowerBound != want.LowerBound || got.Ratio != want.Ratio {
			t.Errorf("iters=%d: anytime metadata differs: got (%v %v %v) want (%v %v %v)",
				iters, got.Truncated, got.LowerBound, got.Ratio, want.Truncated, want.LowerBound, want.Ratio)
		}
		m := req.Graph.M()
		if g, w := maskedWire(t, got.Schedule, m), maskedWire(t, want.Schedule, m); !bytes.Equal(g, w) {
			t.Errorf("iters=%d: budgeted HTTP schedule differs from direct service", iters)
		}
	}
}

// slowGate delays /v1/schedule handling while enabled — a controllable
// slow backend.
type slowGate struct {
	inner   http.Handler
	delay   time.Duration
	enabled atomic.Bool
}

func (g *slowGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.enabled.Load() && strings.HasPrefix(r.URL.Path, "/v1/schedule") {
		time.Sleep(g.delay)
	}
	g.inner.ServeHTTP(w, r)
}

// requestHomedAt searches test seeds for a request whose consistent-hash
// home is the wanted node.
func requestHomedAt(t *testing.T, c *Client, want string, P int) serve.Request {
	t.Helper()
	want = strings.TrimRight(want, "/")
	for seed := int64(1); seed <= 64; seed++ {
		req := testRequest(t, 12, seed, P)
		key, err := req.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if primary, _ := c.ring.pick(keyHash(key)); primary == want {
			return req
		}
	}
	t.Fatal("no test request homed at the wanted node in 64 seeds")
	return serve.Request{}
}

// TestHedgingClipsTailLatency: with the home node artificially slow, the
// hedge fires and the replica answers far sooner than the injected delay —
// and on the happy path (fast home node) no hedge and no duplicate search
// happen at all.
func TestHedgingClipsTailLatency(t *testing.T) {
	svcA := serve.New(serve.Config{Shards: 1, WorkersPerShard: 1})
	defer svcA.Close()
	gate := &slowGate{inner: NewServer(svcA, ServerConfig{}).Handler(), delay: 400 * time.Millisecond}
	nodeA := httptest.NewServer(gate)
	defer nodeA.Close()
	svcB, srvB, nodeB := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})

	client := newTestClient(t, ClientConfig{
		Nodes: []string{nodeA.URL, nodeB.URL},
		// The happy path's first request opens a connection; under -race on
		// two CPUs that alone has taken 17 ms, so the floor sits well above
		// it and still far below the injected delay.
		HedgeFloor: 100 * time.Millisecond,
	})
	ctx := t.Context()
	req := requestHomedAt(t, client, nodeA.URL, 8)

	// Warm both replicas' L1 directly so the HTTP path is a pure cache hit.
	want, err := svcA.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svcB.Schedule(req); err != nil {
		t.Fatal(err)
	}

	// Happy path first: fast home node, no hedge, no duplicate execution.
	got, err := client.Schedule(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Hedges != 0 || st.Failovers != 0 {
		t.Fatalf("happy path hedged: %+v", st)
	}
	if st := srvB.Stats(); st.Served != 0 {
		t.Fatalf("happy path touched the replica over HTTP: %d served", st.Served)
	}
	m := req.Graph.M()
	if !bytes.Equal(maskedWire(t, got, m), maskedWire(t, want, m)) {
		t.Fatal("happy-path schedule differs from direct result")
	}

	// Now the home node turns slow: the hedge must answer from the replica
	// well before the injected delay elapses.
	gate.enabled.Store(true)
	start := time.Now()
	got, err = client.Schedule(ctx, req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed >= gate.delay {
		t.Fatalf("hedged request took %v, no better than the %v slow path", elapsed, gate.delay)
	}
	st := client.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedge counters %+v, want 1 hedge / 1 win", st)
	}
	if !bytes.Equal(maskedWire(t, got, m), maskedWire(t, want, m)) {
		t.Fatal("hedged schedule differs from direct result")
	}
	// The replica answered from its cache — the hedge did not trigger a
	// duplicate search anywhere.
	if a, b := svcA.Stats(), svcB.Stats(); a.Scheduled+b.Scheduled != 2 {
		t.Fatalf("%d searches ran for one instance warmed on two nodes", a.Scheduled+b.Scheduled)
	}
}

// TestFailoverOnDeadNode: a connection-refused primary fails over to the
// replica immediately, without waiting for the hedge delay.
func TestFailoverOnDeadNode(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on
	_, _, live := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})

	client := newTestClient(t, ClientConfig{
		Nodes:      []string{deadURL, live.URL},
		HedgeFloor: time.Hour, // failover must not depend on the hedge timer
	})
	req := requestHomedAt(t, client, deadURL, 8)
	got, err := client.Schedule(t.Context(), req)
	if err != nil {
		t.Fatalf("failover did not rescue the request: %v", err)
	}
	if got == nil || got.Makespan <= 0 {
		t.Fatal("failover returned a bogus schedule")
	}
	if st := client.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers=%d, want 1", st.Failovers)
	}
}

// TestAdmissionControlSheds: a node at MaxInflight sheds with 503 and a
// Retry-After hint instead of queueing.
func TestAdmissionControlSheds(t *testing.T) {
	_, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{MaxInflight: 1, RetryAfterSeconds: 7})

	req := testRequest(t, 10, 21, 8)
	wr, err := serve.WireFromRequest(req, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wr)
	if err != nil {
		t.Fatal(err)
	}

	srv.sem <- struct{}{} // occupy the only admission slot
	resp, err := http.Post(node.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want \"7\"", ra)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Error == "" {
		t.Fatalf("shed response body not a JSON error: %v %+v", err, we)
	}
	if st := srv.Stats(); st.Shed != 1 {
		t.Fatalf("shed=%d, want 1", st.Shed)
	}
	<-srv.sem // release; the node admits again

	resp2, err := http.Post(node.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after release %d, want 200", resp2.StatusCode)
	}
}

// blockingL2 parks the first worker that probes it until released, so tests
// can deterministically wedge a single-worker service.
type blockingL2 struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingL2) Get(_ serve.Key, _ serve.Request) (*schedule.Schedule, bool, bool) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return nil, false, false
}

func (b *blockingL2) Put(serve.Key, serve.Request, *schedule.Schedule, bool) {}

// TestClientDisconnectCancelsQueuedJob: when the HTTP client goes away, the
// context propagates down and the queued job is abandoned — the service
// counts a cancellation instead of burning a worker.
func TestClientDisconnectCancelsQueuedJob(t *testing.T) {
	l2 := &blockingL2{entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc, _, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1, L2: l2}, ServerConfig{})
	client := newTestClient(t, ClientConfig{Nodes: []string{node.URL}})

	// Wedge the only worker on request one.
	first := make(chan error, 1)
	go func() {
		_, err := client.Schedule(context.Background(), testRequest(t, 10, 31, 8))
		first <- err
	}()
	select {
	case <-l2.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never reached the L2 probe")
	}

	// Request two queues behind it; its client disconnects.
	ctx, cancel := context.WithCancel(t.Context())
	second := make(chan error, 1)
	go func() {
		_, err := client.Schedule(ctx, testRequest(t, 10, 32, 8))
		second <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the shard queue
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Cancelled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("service never counted the cancellation: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(l2.release)
	if err := <-first; err != nil {
		t.Fatalf("wedged request failed after release: %v", err)
	}
}

// TestBadRequests: malformed bodies and foreign schemas are 400s with JSON
// error bodies, not 500s.
func TestBadRequests(t *testing.T) {
	_, _, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	for _, body := range []string{
		"{not json",
		`{"schema":"locmps/wire/v999","tasks":[{"et":[1]}],"cluster":{"p":1,"bandwidth":1}}`,
		`{"schema":"locmps/wire/v1","tasks":[],"cluster":{"p":1,"bandwidth":1}}`,
	} {
		resp, err := http.Post(node.URL+"/v1/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var we wireError
		derr := json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if derr != nil || we.Error == "" {
			t.Errorf("body %q: error payload missing (%v)", body, derr)
		}
	}
}

// TestStatsAndReady: /healthz gates WaitReady and /v1/stats serves the
// documented counters.
func TestStatsAndReady(t *testing.T) {
	svc, _, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	client := newTestClient(t, ClientConfig{Nodes: []string{node.URL}})
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	if err := client.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady on a live node: %v", err)
	}

	req := testRequest(t, 10, 41, 8)
	if _, err := client.Schedule(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Schedule(ctx, req); err != nil {
		t.Fatal(err)
	}
	stats, err := client.NodeStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := stats[strings.TrimRight(node.URL, "/")]
	if !ok {
		t.Fatalf("stats map %v missing node", stats)
	}
	// First call POSTs and schedules; the repeat is answered from the
	// node's encoded-response cache via the content-addressed GET and never
	// reaches the service at all.
	if st.Requests != 1 || st.Scheduled != 1 || st.Served != 2 || st.RespCacheHits != 1 {
		t.Fatalf("stats %+v, want 1 request / 1 scheduled / 2 served / 1 resp-cache hit", st)
	}
	if got := svc.Stats(); got.Requests != 1 {
		t.Fatalf("service saw %d requests, want 1", got.Requests)
	}

	// WaitReady fails fast-ish when a node is unreachable.
	deadNode := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadNode.URL
	deadNode.Close()
	c2 := newTestClient(t, ClientConfig{Nodes: []string{node.URL, deadURL}})
	ctx2, cancel2 := context.WithTimeout(t.Context(), 200*time.Millisecond)
	defer cancel2()
	if err := c2.WaitReady(ctx2); err == nil {
		t.Fatal("WaitReady succeeded with a dead node")
	}
}

// TestRing: determinism, full coverage, and distinct primary/secondary.
func TestRing(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := newRing(nodes, 64)
	r2 := newRing(nodes, 64)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		p1, s1 := r1.pick(h)
		p2, s2 := r2.pick(h)
		if p1 != p2 || s1 != s2 {
			t.Fatalf("ring not deterministic at %d: (%s,%s) vs (%s,%s)", i, p1, s1, p2, s2)
		}
		if p1 == s1 {
			t.Fatalf("primary == secondary (%s) at %d", p1, i)
		}
		if s1 == "" {
			t.Fatalf("no secondary with 3 nodes at %d", i)
		}
		counts[p1]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys: %v", n, counts)
		}
	}
	// Single node: no secondary, everything routes to it.
	solo := newRing([]string{"http://a:1"}, 8)
	p, s := solo.pick(12345)
	if p != "http://a:1" || s != "" {
		t.Fatalf("solo ring pick = (%s, %s)", p, s)
	}
}

// TestBodyCacheReuse: repeat sends of one instance hit the encoded-body
// cache (and still return correct results).
func TestBodyCacheReuse(t *testing.T) {
	_, _, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	client := newTestClient(t, ClientConfig{Nodes: []string{node.URL}})
	ctx := t.Context()
	req := testRequest(t, 10, 51, 8)
	key, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Schedule(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, ok := client.bodies.get(key); !ok {
		t.Fatal("encoded body not cached after first send")
	}
	if _, err := client.Schedule(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Budgeted requests must not poison the body cache with stale deadlines.
	if _, err := client.ScheduleAnytime(ctx, req, core.Budget{MaxIterations: 1}); err != nil {
		t.Fatal(err)
	}
	cached, _ := client.bodies.get(key)
	if bytes.Contains(cached, []byte("budget")) {
		t.Fatal("body cache holds a budgeted encoding")
	}
}
