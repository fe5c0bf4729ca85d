package httpserve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"locmps/internal/serve"
	"locmps/internal/serve/lru"
)

// ServerConfig tunes one HTTP scheduling node.
type ServerConfig struct {
	// MaxInflight bounds concurrently handled /v1/schedule requests. Beyond
	// the bound the node sheds load: 503 with a Retry-After hint instead of
	// queueing — the job queue behind serve.Service already provides the
	// buffering this deployment wants, and unbounded HTTP handlers would
	// just hide overload in goroutine pileups. <= 0 selects
	// DefaultMaxInflight.
	MaxInflight int
	// MaxBodyBytes bounds a request body. <= 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

// DefaultMaxInflight is the admission bound when the config leaves it zero.
const DefaultMaxInflight = 256

// DefaultMaxBodyBytes bounds request bodies: 64 MiB, far above any sane
// task graph but below what would let one request exhaust memory.
const DefaultMaxBodyBytes = 64 << 20

// retryAfterSeconds is the Retry-After hint on shed and overloaded
// responses.
const retryAfterSeconds = 1

// respCacheEntries bounds the node's cache of fully encoded response
// bytes, keyed by request fingerprint. A repeat whose body is
// byte-identical to one already answered is served by a SHA-256 of the
// body, two map lookups and a single write — no JSON decode, no
// fingerprint, no scheduling pipeline. A repeat encoded differently
// (whitespace, field order) is decoded and fingerprinted but still skips
// the pipeline. Clients can also fetch known results content-addressed via
// GET /v1/schedule/{key} without re-sending the request body at all.
const respCacheEntries = 1024

// Server exposes a serve.Service over HTTP/JSON:
//
//	POST /v1/schedule        WireRequest -> WireResponse
//	GET  /v1/schedule/{key}  content-addressed fetch of a known result
//	GET  /v1/stats           NodeStats
//	GET  /healthz            200 "ok"
//
// The handler propagates the request context into the service, so a client
// that disconnects (or hedges and cancels the loser) aborts its queued or
// running job instead of burning a worker on an answer nobody wants.
type Server struct {
	svc *serve.Service
	cfg ServerConfig
	mux *http.ServeMux
	sem chan struct{}

	resp *respCache

	inflight atomic.Int64
	shed     atomic.Uint64
	served   atomic.Uint64
	respHits atomic.Uint64
}

// NewServer wraps svc. The caller keeps ownership of svc (and closes it).
func NewServer(svc *serve.Service, cfg ServerConfig) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		svc:  svc,
		cfg:  cfg,
		mux:  http.NewServeMux(),
		sem:  make(chan struct{}, cfg.MaxInflight),
		resp: newRespCache(respCacheEntries),
	}
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("GET /v1/schedule/{key}", s.handleGetSchedule)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handler returns the node's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// wireError is the JSON body of every non-200 response.
type wireError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wireError{Error: msg})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	// Admission control: a full semaphore means the node is already running
	// MaxInflight requests; shed immediately rather than queue.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shed.Add(1)
		s.fail(w, http.StatusServiceUnavailable, "node at max inflight requests")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// A body read in full is addressed by its digest: a byte-identical
	// repeat of a cacheable request is answered before any decoding. A
	// body cut short (over MaxBodyBytes, or the client went away) is never
	// looked up or recorded by digest.
	buf, rerr := s.readBody(w, r)
	var digest bodyDigest
	if rerr == nil {
		digest = sha256.Sum256(buf.Bytes())
		if ent, ok := s.resp.getBody(digest); ok {
			putBody(buf)
			s.writeCached(w, r, ent)
			return
		}
	}
	var wr serve.WireRequest
	err := json.NewDecoder(bodyReader(buf.Bytes(), rerr)).Decode(&wr)
	putBody(buf)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	req, budget, err := wr.ToRequest()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	anytime := budget.MaxIterations > 0 || !budget.Deadline.IsZero()

	// Deterministic requests are replayable byte-for-byte: the fingerprint
	// (with an iteration budget folded in, mirroring ScheduleAnytime)
	// addresses the encoded response, and the body digest is recorded on
	// the entry it reaches. Wall-clock deadline runs are the one
	// non-deterministic case and bypass the cache entirely.
	cacheable := budget.Deadline.IsZero()
	var rk respKey
	if cacheable {
		keyReq := req
		if budget.MaxIterations > 0 {
			keyReq.Options.MaxIterations = budget.MaxIterations
		}
		key, err := keyReq.Fingerprint()
		if err != nil {
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}
		rk = respKey{key: key, anytime: anytime}
		if ent, ok := s.resp.get(rk, digest); ok {
			s.writeCached(w, r, ent)
			return
		}
	}

	// r.Context() is cancelled by net/http when the client goes away, which
	// cancels this job all the way down to the service's job queue.
	ctx := r.Context()
	resp := serve.WireResponse{Schema: serve.WireVersion}
	if anytime {
		ar, err := s.svc.ScheduleAnytime(ctx, req, budget)
		if err != nil {
			s.failSchedule(w, ctx, err)
			return
		}
		resp.Schedule = *serve.WireFromSchedule(ar.Schedule, req.Graph.M())
		resp.Truncated = ar.Truncated
		resp.LowerBound = ar.LowerBound
		resp.Ratio = ar.Ratio
	} else {
		sched, err := s.svc.ScheduleContext(ctx, req)
		if err != nil {
			s.failSchedule(w, ctx, err)
			return
		}
		resp.Schedule = *serve.WireFromSchedule(sched, req.Graph.M())
	}
	data, err := json.Marshal(&resp)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if cacheable {
		etag := etagFor(data)
		s.resp.put(rk, respVal{data: data, etag: etag}, digest)
		w.Header().Set("ETag", etag)
	}
	w.Write(data)
}

// bodyPoolMax caps the capacity of a buffer returned to bodyPool: one huge
// body is left to the collector instead of being retained by the pool.
// It also caps the Content-Length presize, so a client cannot make the
// node allocate a large buffer up front by announcing a body it never
// sends.
const bodyPoolMax = 1 << 20

// bodyPool recycles request-body buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the request body, bounded by MaxBodyBytes, into a pooled
// buffer presized from Content-Length. A non-nil error (including
// *http.MaxBytesError) means the body was cut short; the buffer then holds
// the bytes read before it. Return the buffer with putBody.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := min(r.ContentLength, s.cfg.MaxBodyBytes, bodyPoolMax); n > 0 {
		// The spare MinRead lets ReadFrom see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	return buf, err
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= bodyPoolMax {
		bodyPool.Put(buf)
	}
}

// bodyReader replays a buffered body to the JSON decoder. A body cut short
// replays its prefix and then the read error, so the decoder sees exactly
// the stream it would have read from the connection: a complete first
// value still decodes, trailing data is ignored, and a value running into
// the cut reports the read error.
func bodyReader(b []byte, rerr error) io.Reader {
	if rerr == nil {
		return bytes.NewReader(b)
	}
	return io.MultiReader(bytes.NewReader(b), errReader{rerr})
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// etagFor derives the strong validator for a response body: a hash of
// the exact bytes this node sent. It is per node, not per request: every
// response stamps the wall-clock scheduling_time_ns of the run that made
// it, so two nodes (or one node before and after a restart) answer the
// same request with different bytes and different ETags. If-None-Match
// therefore matches only on the node whose bytes the client holds; any
// other node sends the full body.
func etagFor(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// writeCached serves one response-cache entry, honoring If-None-Match: a
// client that already holds these exact bytes gets an empty 304 instead of
// the body — on warm traffic that collapses the exchange to two small
// frames.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, ent respVal) {
	s.respHits.Add(1)
	s.served.Add(1)
	w.Header().Set("ETag", ent.etag)
	if r.Header.Get("If-None-Match") == ent.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(ent.data)
}

// handleGetSchedule is the content-addressed fast path: a client that has
// already posted a request (to any node, in any process lifetime) can
// retry it by fingerprint alone — a ~100-byte GET instead of a full graph
// upload. 404 means "not warm here, POST the body"; it is the client's
// cue to fall back, never an error surfaced to callers.
func (s *Server) handleGetSchedule(w http.ResponseWriter, r *http.Request) {
	key, err := serve.ParseKey(r.PathValue("key"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	ent, ok := s.resp.get(respKey{key: key}, noBody)
	if !ok {
		s.fail(w, http.StatusNotFound, "result not cached on this node")
		return
	}
	s.writeCached(w, r, ent)
}

// failSchedule maps service errors onto status codes. Overload and shutdown
// are retryable elsewhere (503); a dead client gets nothing; the rest are
// the caller's fault or ours.
func (s *Server) failSchedule(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed):
		s.fail(w, http.StatusServiceUnavailable, err.Error())
	case ctx.Err() != nil:
		// Client disconnected; the response is undeliverable. net/http
		// discards whatever we write, so write nothing.
	case errors.Is(err, serve.ErrAnytimeUnsupported):
		s.fail(w, http.StatusBadRequest, err.Error())
	default:
		s.fail(w, http.StatusInternalServerError, err.Error())
	}
}

// NodeStats is the GET /v1/stats payload: the wrapped service's counters
// plus this HTTP layer's admission numbers. Field names are stable —
// loadgen and ops tooling parse them.
type NodeStats struct {
	Requests  uint64 `json:"requests"`
	CacheHits uint64 `json:"cache_hits"`
	Coalesced uint64 `json:"coalesced"`
	Scheduled uint64 `json:"scheduled"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`
	Completed uint64 `json:"completed"`
	// Deprecated: SharedStateHits and SharedStateMisses are always 0, like
	// the serve.Stats fields they mirrored. They remain only because the
	// frozen e2ebench module still reads them.
	SharedStateHits   uint64 `json:"shared_state_hits"`
	SharedStateMisses uint64 `json:"shared_state_misses"`
	L2Hits            uint64 `json:"l2_hits"`
	L2Misses          uint64 `json:"l2_misses"`
	L2Writes          uint64 `json:"l2_writes"`
	Evictions         uint64 `json:"evictions"`
	CacheEntries      int    `json:"cache_entries"`
	Workers           int    `json:"workers"`
	UptimeNS          int64  `json:"uptime_ns"`
	P50NS             int64  `json:"p50_ns"`
	P99NS             int64  `json:"p99_ns"`

	// HTTP layer: Served counts 200s, Shed counts admission-control 503s
	// (not including serve.ErrOverloaded rejections, which Rejected holds),
	// Inflight is the instantaneous handler count. RespCacheHits counts
	// requests answered from the encoded-response cache (including all
	// content-addressed GETs).
	Served        uint64 `json:"served"`
	Shed          uint64 `json:"shed"`
	Inflight      int64  `json:"inflight"`
	MaxInflight   int    `json:"max_inflight"`
	RespCacheHits uint64 `json:"resp_cache_hits"`
}

// Stats snapshots the node.
func (s *Server) Stats() NodeStats {
	st := s.svc.Stats()
	return NodeStats{
		Requests:      st.Requests,
		CacheHits:     st.CacheHits,
		Coalesced:     st.Coalesced,
		Scheduled:     st.Scheduled,
		Failed:        st.Failed,
		Rejected:      st.Rejected,
		Cancelled:     st.Cancelled,
		Completed:     st.Completed,
		L2Hits:        st.L2Hits,
		L2Misses:      st.L2Misses,
		L2Writes:      st.L2Writes,
		Evictions:     st.Evictions,
		CacheEntries:  st.CacheEntries,
		Workers:       st.Workers,
		UptimeNS:      st.Uptime.Nanoseconds(),
		P50NS:         st.P50.Nanoseconds(),
		P99NS:         st.P99.Nanoseconds(),
		Served:        s.served.Load(),
		Shed:          s.shed.Load(),
		Inflight:      s.inflight.Load(),
		MaxInflight:   s.cfg.MaxInflight,
		RespCacheHits: s.respHits.Load(),
	}
}

// respKey addresses one cached response: the request fingerprint plus
// whether the response carries anytime metadata. A budgeted
// (MaxIterations) request and a plain request with the same folded options
// share a fingerprint but answer with different envelopes (truncation flag
// and quality certificate), so the flag keeps them apart.
type respKey struct {
	key     serve.Key
	anytime bool
}

// respVal is one cached response: the encoded body and its strong ETag.
type respVal struct {
	data []byte
	etag string
}

// bodyDigest is the SHA-256 of a request body as received. A digest hit is
// served without decoding, so the hash must be collision-resistant: two
// bodies sharing a digest would share an answer.
type bodyDigest [sha256.Size]byte

// noBody is the zero digest, which stands for "no body" (it is never a
// SHA-256 in practice).
var noBody bodyDigest

// respCache is a bounded LRU of fully encoded response bodies keyed by
// respKey. Each entry may also carry the digest of one request body known
// to decode to its key, indexed by byBody; evicting an entry drops its
// digest too, so len(byBody) <= entries.Len() <= capacity.
type respCache struct {
	mu      sync.Mutex
	entries *lru.Cache[respKey, *respEnt]
	byBody  map[bodyDigest]respKey
}

type respEnt struct {
	val  respVal
	body bodyDigest // noBody when none is recorded
}

func newRespCache(capacity int) *respCache {
	c := &respCache{byBody: make(map[bodyDigest]respKey)}
	c.entries = lru.New(capacity, func(_ respKey, e *respEnt) { delete(c.byBody, e.body) })
	return c
}

// get looks k up and, on a hit, records body (unless noBody) on the entry.
func (c *respCache) get(k respKey, body bodyDigest) (respVal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(k)
	if !ok {
		return respVal{}, false
	}
	c.bind(k, e, body)
	return e.val, true
}

// getBody looks an entry up by request-body digest: one lock, two map
// lookups and no allocation, since this is the path every byte-identical
// repeat takes.
func (c *respCache) getBody(d bodyDigest) (respVal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := c.byBody[d]; ok {
		if e, ok := c.entries.Get(k); ok { // always: eviction drops the digest
			return e.val, true
		}
	}
	return respVal{}, false
}

// put stores v under k, recording body (unless noBody) on the entry.
func (c *respCache) put(k respKey, v respVal, body bodyDigest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(k)
	if ok {
		e.val = v
	} else {
		e = &respEnt{val: v}
		c.entries.Add(k, e)
	}
	c.bind(k, e, body)
}

// bind makes d the one body digest of entry e (stored under k), replacing
// any other. A body decodes to exactly one respKey, so d is never bound to
// another entry. The caller holds c.mu.
func (c *respCache) bind(k respKey, e *respEnt, d bodyDigest) {
	if d == noBody || e.body == d {
		return
	}
	delete(c.byBody, e.body)
	e.body = d
	c.byBody[d] = k
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&st)
}
