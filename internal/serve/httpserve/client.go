package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locmps/internal/core"
	"locmps/internal/latring"
	"locmps/internal/schedule"
	"locmps/internal/serve"
	"locmps/internal/serve/lru"
)

// ClientConfig tunes a scheduling-service client.
type ClientConfig struct {
	// Nodes are the base URLs of the service nodes, e.g.
	// "http://127.0.0.1:8080". At least one is required.
	Nodes []string
	// HedgeFloor is the minimum hedge delay (<= 0 selects 2ms): until the
	// latency window has data — and for sub-floor p99s — the hedge fires
	// this long after the primary.
	HedgeFloor time.Duration
	// DisableHedging turns hedged retries off; failover on error remains.
	DisableHedging bool
}

// virtualNodes is the number of ring points per node. More points smooth
// the key distribution across nodes.
const virtualNodes = 64

// clientCacheEntries bounds the client's per-fingerprint cache of sent
// requests (see clientEnt).
const clientCacheEntries = 512

// clientEnt is what the client remembers about one budget-free request it
// sent, keyed by fingerprint. body is the encoded request, so a re-send
// skips profile sampling and JSON encoding entirely (budgeted requests are
// never cached: their relative deadlines are re-encoded per send). sched
// is the decoded schedule the node answered, with that response's ETag; a
// repeat revalidates it with If-None-Match, and a 304 proves the local
// copy is current, so the response body never crosses the wire, let alone
// gets re-decoded. sched is never handed out — callers get Clones — and
// both it and etag are unset until an answer with an ETag arrives.
type clientEnt struct {
	body  []byte
	etag  string
	sched *schedule.Schedule
}

// Client talks to a fleet of scheduling nodes. Routing is
// consistent-hashed on the request fingerprint, so every distinct instance
// has a home node whose L1/L2 caches warm for it; tail latency is clipped
// by hedged retries: if the home node hasn't answered within ~1.5x the
// client-observed p99, the same request is raced on the next replica and
// the first answer wins (the loser's context is cancelled, which on the
// server aborts the duplicate job). Because results are deterministic and
// cached by fingerprint, hedging is always safe — the worst case is one
// redundant cache lookup on the replica.
type Client struct {
	nodes []string
	ring  *hashRing
	hc    *http.Client
	lat   *latring.Ring
	floor time.Duration
	hedge bool

	mu   sync.Mutex // guards sent
	sent *lru.Cache[serve.Key, clientEnt]

	hedges, hedgeWins, failovers, revalidated atomic.Uint64
}

// clientLatWindow sizes the sliding window behind the hedge delay.
const clientLatWindow = 1024

// NewClient validates cfg and builds a client with a keep-alive pooled
// transport. Close it when done to release idle connections.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("httpserve: no nodes configured")
	}
	nodes := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		n = strings.TrimRight(n, "/")
		if n == "" {
			return nil, fmt.Errorf("httpserve: empty node URL at index %d", i)
		}
		if !strings.Contains(n, "://") {
			n = "http://" + n
		}
		nodes[i] = n
	}
	floor := cfg.HedgeFloor
	if floor <= 0 {
		floor = 2 * time.Millisecond
	}
	return &Client{
		nodes: nodes,
		ring:  newRing(nodes, virtualNodes),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			// Responses are either 304s or JSON a compressor would only slow
			// down on loopback; skipping negotiation trims the hot path.
			DisableCompression: true,
		}},
		lat:   latring.New(clientLatWindow),
		floor: floor,
		hedge: !cfg.DisableHedging,
		sent:  lru.New[serve.Key, clientEnt](clientCacheEntries, nil),
	}, nil
}

// Close releases pooled connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Nodes reports the normalized node URLs.
func (c *Client) Nodes() []string { return append([]string(nil), c.nodes...) }

// Schedule requests a full (unbudgeted) schedule for req from the fleet.
// The returned schedule is bit-identical to what a local serve.Service
// would produce for the same request.
func (c *Client) Schedule(ctx context.Context, req serve.Request) (*schedule.Schedule, error) {
	key, err := req.Fingerprint()
	if err != nil {
		return nil, err
	}
	// A cache hit means this instance was sent before: skip re-encoding and
	// let the attempt try the content-addressed GET first — the node that
	// served it last time answers from its response cache without the body
	// crossing the wire again. With a cached answer the request also
	// carries If-None-Match, and a 304 means the decoded schedule we
	// already hold is current, so neither the body nor the decode cost is
	// paid again.
	c.mu.Lock()
	ent, sentBefore := c.sent.Get(key)
	c.mu.Unlock()
	if !sentBefore {
		wr, err := serve.WireFromRequest(req, core.Budget{})
		if err != nil {
			return nil, err
		}
		if ent.body, err = json.Marshal(wr); err != nil {
			return nil, err
		}
		c.remember(key, ent)
	}
	res, err := c.do(ctx, key, ent.body, sentBefore, ent.etag)
	if err != nil {
		return nil, err
	}
	if res.notModified {
		if ent.sched == nil {
			return nil, errors.New("httpserve: 304 without a cached result")
		}
		c.revalidated.Add(1)
		return ent.sched.Clone(), nil
	}
	s, err := res.wr.Schedule.ToSchedule(req.Graph)
	if err != nil {
		return nil, err
	}
	if res.etag != "" {
		// Keep the decoded master private to the cache; hand the caller a
		// deep copy so later revalidated hits can't observe its mutations.
		ent.etag, ent.sched = res.etag, s
		c.remember(key, ent)
		return s.Clone(), nil
	}
	return s, nil
}

func (c *Client) remember(key serve.Key, ent clientEnt) {
	c.mu.Lock()
	c.sent.Add(key, ent)
	c.mu.Unlock()
}

// ScheduleAnytime requests a budget-bounded schedule; the budget crosses
// the wire as a relative deadline and is re-anchored on the serving node.
func (c *Client) ScheduleAnytime(ctx context.Context, req serve.Request, b core.Budget) (*core.AnytimeResult, error) {
	key, err := req.Fingerprint()
	if err != nil {
		return nil, err
	}
	wr, err := serve.WireFromRequest(req, b)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(wr)
	if err != nil {
		return nil, err
	}
	res, err := c.do(ctx, key, body, false, "")
	if err != nil {
		return nil, err
	}
	s, err := res.wr.Schedule.ToSchedule(req.Graph)
	if err != nil {
		return nil, err
	}
	return &core.AnytimeResult{
		Schedule:   s,
		LowerBound: res.wr.LowerBound,
		Ratio:      res.wr.Ratio,
		Truncated:  res.wr.Truncated,
	}, nil
}

// ClientStats exposes the client's hedging counters.
type ClientStats struct {
	// Hedges counts secondary requests launched because the primary was
	// slow; HedgeWins counts hedged requests won by the secondary.
	// Failovers counts secondaries launched because the primary failed
	// retryably (503 or connection error). Revalidated counts requests
	// answered by a 304 against the client's decoded-result cache.
	Hedges, HedgeWins, Failovers, Revalidated uint64
	// P50/P99 are the client-observed request latency quantiles over a
	// sliding window.
	P50, P99 time.Duration
}

// Stats snapshots the client counters.
func (c *Client) Stats() ClientStats {
	p50, p99 := c.lat.Quantiles()
	return ClientStats{
		Hedges:      c.hedges.Load(),
		HedgeWins:   c.hedgeWins.Load(),
		Failovers:   c.failovers.Load(),
		Revalidated: c.revalidated.Load(),
		P50:         p50,
		P99:         p99,
	}
}

// NodeStats fetches GET /v1/stats from every node, keyed by node URL.
func (c *Client) NodeStats(ctx context.Context) (map[string]NodeStats, error) {
	out := make(map[string]NodeStats, len(c.nodes))
	for _, n := range c.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n+"/v1/stats", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("httpserve: stats from %s: %w", n, err)
		}
		var st NodeStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("httpserve: stats from %s: %w", n, err)
		}
		out[n] = st
	}
	return out, nil
}

// WaitReady polls every node's /healthz until all answer or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		ready := 0
		for _, n := range c.nodes {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := c.hc.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ready++
				}
			}
		}
		if ready == len(c.nodes) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("httpserve: %d/%d nodes ready: %w", ready, len(c.nodes), ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Route reports the home node for a fingerprint and the replica that
// hedges for it (empty with a single node) — placement awareness for load
// drivers and ops tooling.
func (c *Client) Route(key serve.Key) (primary, secondary string) {
	return c.ring.pick(keyHash(key))
}

// hedgeDelay is how long the primary gets before the secondary is raced:
// 1.5x the observed p99 — past the latency knee, long before a timeout —
// but never under the floor, which also covers the cold window.
func (c *Client) hedgeDelay() time.Duration {
	p99 := c.lat.Quantile(99)
	d := p99 + p99/2
	if d < c.floor {
		d = c.floor
	}
	return d
}

// nodeError wraps a per-node failure with whether another replica may
// succeed where this one failed.
type nodeError struct {
	node      string
	err       error
	retryable bool
	notFound  bool
}

func (e *nodeError) Error() string { return fmt.Sprintf("%s: %v", e.node, e.err) }
func (e *nodeError) Unwrap() error { return e.err }

func retryableErr(err error) bool {
	var ne *nodeError
	return errors.As(err, &ne) && ne.retryable
}

// do routes one encoded request: primary by consistent hash, hedged or
// failed over to the next replica. The first success wins and cancels the
// other attempt. The latency window records per-attempt service time (the
// winning attempt's launch-to-answer), NOT the caller's total wait: total
// wait includes the hedge delay itself, and feeding that back into the
// p99-derived delay would ratchet it upward until hedging disabled itself.
func (c *Client) do(ctx context.Context, key serve.Key, body []byte, tryGet bool, inm string) (*wireResult, error) {
	primary, secondary := c.ring.pick(keyHash(key))
	if secondary == "" {
		start := time.Now()
		resp, err := c.exchange(ctx, primary, key, body, tryGet, inm)
		if err == nil {
			c.lat.Record(time.Since(start))
		}
		return resp, err
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // always reap the losing attempt

	type outcome struct {
		resp    *wireResult
		err     error
		node    string
		elapsed time.Duration
	}
	ch := make(chan outcome, 2)
	launch := func(node string) {
		go func() {
			t0 := time.Now()
			resp, err := c.exchange(cctx, node, key, body, tryGet, inm)
			ch <- outcome{resp, err, node, time.Since(t0)}
		}()
	}
	launch(primary)
	launched := 1

	var timer *time.Timer
	var hedgeC <-chan time.Time
	if c.hedge {
		timer = time.NewTimer(c.hedgeDelay())
		defer timer.Stop()
		hedgeC = timer.C
	}

	var firstErr error
	for done := 0; ; {
		select {
		case out := <-ch:
			done++
			if out.err == nil {
				c.lat.Record(out.elapsed)
				if out.node != primary && launched > 1 {
					c.hedgeWins.Add(1)
				}
				return out.resp, nil
			}
			// Prefer reporting a real failure over the cancellation we
			// inflicted on the losing attempt ourselves.
			if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(out.err, context.Canceled)) {
				firstErr = out.err
			}
			if launched == 1 && retryableErr(out.err) && ctx.Err() == nil {
				// Primary failed fast: skip the hedge delay, go now.
				c.failovers.Add(1)
				launch(secondary)
				launched = 2
				continue
			}
			if done == launched {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if launched == 1 && ctx.Err() == nil {
				c.hedges.Add(1)
				launch(secondary)
				launched = 2
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// wireResult is one decoded exchange: either a fresh response (wr, with its
// ETag when the server cached it) or a 304 revalidation of the client's own
// cached copy (notModified, no body).
type wireResult struct {
	wr          *serve.WireResponse
	etag        string
	notModified bool
}

// exchange resolves one request against one node. With tryGet, it first
// attempts the content-addressed GET (fingerprint in the URL, no body): a
// hit skips the upload and the node's whole decode/schedule pipeline; a
// 404 falls back to the full POST. inm, when set, is the If-None-Match
// validator for the client's cached result.
func (c *Client) exchange(ctx context.Context, node string, key serve.Key, body []byte, tryGet bool, inm string) (*wireResult, error) {
	if tryGet {
		res, err := c.roundTrip(ctx, node, http.MethodGet, node+"/v1/schedule/"+serve.HexKey(key), nil, inm)
		if err == nil {
			return res, nil
		}
		var ne *nodeError
		if !(errors.As(err, &ne) && ne.notFound) {
			return nil, err
		}
	}
	return c.roundTrip(ctx, node, http.MethodPost, node+"/v1/schedule", body, inm)
}

// roundTrip performs one HTTP exchange and decodes the wire response.
func (c *Client) roundTrip(ctx context.Context, node, method, url string, body []byte, inm string) (*wireResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, &nodeError{node: node, err: err, retryable: false}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Connection-level failure: another replica may well be fine.
		return nil, &nodeError{node: node, err: err, retryable: ctx.Err() == nil}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, DefaultMaxBodyBytes))
	if err != nil {
		return nil, &nodeError{node: node, err: err, retryable: ctx.Err() == nil}
	}
	if resp.StatusCode == http.StatusNotModified {
		// The validator matched: the client's cached result is current. No
		// body to decode — the ETag was derived from bytes we already hold.
		return &wireResult{notModified: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		var we wireError
		if json.Unmarshal(data, &we) == nil && we.Error != "" {
			msg = we.Error
		}
		return nil, &nodeError{
			node:      node,
			err:       fmt.Errorf("status %d: %s", resp.StatusCode, msg),
			retryable: resp.StatusCode == http.StatusServiceUnavailable,
			notFound:  resp.StatusCode == http.StatusNotFound,
		}
	}
	var wr serve.WireResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, &nodeError{node: node, err: err, retryable: false}
	}
	if !serve.WireSchemaOK(wr.Schema) {
		return nil, &nodeError{node: node, err: fmt.Errorf("response schema %q, want %q", wr.Schema, serve.WireVersion), retryable: false}
	}
	return &wireResult{wr: &wr, etag: resp.Header.Get("ETag")}, nil
}
