package httpserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"locmps/internal/core"
	"locmps/internal/serve"
)

// posted is one raw POST /v1/schedule exchange as the client saw it.
type posted struct {
	status int
	body   []byte
	etag   string
}

func postRaw(t testing.TB, url string, body []byte) posted {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return posted{status: resp.StatusCode, body: data, etag: resp.Header.Get("ETag")}
}

// wireBody encodes req (with budget b) exactly as Client sends it.
func wireBody(t testing.TB, req serve.Request, b core.Budget) []byte {
	t.Helper()
	wr, err := serve.WireFromRequest(req, b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(wr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cacheSizes reads the response cache's two index sizes.
func cacheSizes(s *Server) (byKey, byBody int) {
	s.resp.mu.Lock()
	defer s.resp.mu.Unlock()
	return len(s.resp.byKey), len(s.resp.byBody)
}

func bodyCached(s *Server, body []byte) bool {
	s.resp.mu.Lock()
	defer s.resp.mu.Unlock()
	_, ok := s.resp.byBody[sha256.Sum256(body)]
	return ok
}

// TestDigestHitMatchesCold: the cold response, a byte-identical repeat
// (served by body digest) and re-encoded repeats (whitespace changed;
// fields reordered under the v1 schema; served by fingerprint) all return
// the same bytes and ETag, and only the cold request reaches the service.
func TestDigestHitMatchesCold(t *testing.T) {
	svc, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	body := wireBody(t, testRequest(t, 12, 61, 8), core.Budget{})

	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	// A map re-marshals with sorted keys: "cluster" and "edges" now come
	// before "schema" and "tasks".
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	fields["schema"] = "locmps/wire/v1"
	v1, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(v1, body) || bytes.Equal(indented.Bytes(), body) {
		t.Fatal("re-encoded bodies equal the original")
	}

	cold := postRaw(t, node.URL, body)
	if cold.status != http.StatusOK || cold.etag == "" {
		t.Fatalf("cold: status %d etag %q: %s", cold.status, cold.etag, cold.body)
	}
	if !bodyCached(srv, body) {
		t.Fatal("cold response did not record its body digest")
	}
	// byDigest says whether the body's digest is indexed before the post.
	// The entry holds one digest: a re-encoding reaching it by
	// fingerprint replaces the digest bound before.
	for _, tc := range []struct {
		name     string
		body     []byte
		byDigest bool
	}{
		{"repeat", body, true},
		{"indented", indented.Bytes(), false},
		{"indented repeat", indented.Bytes(), true},
		{"v1 reordered", v1, false},
		{"v1 reordered repeat", v1, true},
		{"original again", body, false},
		{"original repeat", body, true},
	} {
		if got := bodyCached(srv, tc.body); got != tc.byDigest {
			t.Errorf("%s: digest indexed before the post = %v, want %v", tc.name, got, tc.byDigest)
		}
		got := postRaw(t, node.URL, tc.body)
		if got.status != cold.status || got.etag != cold.etag || !bytes.Equal(got.body, cold.body) {
			t.Errorf("%s: status %d etag %q differs from cold %d %q (bodies equal: %v)",
				tc.name, got.status, got.etag, cold.status, cold.etag, bytes.Equal(got.body, cold.body))
		}
		if !bodyCached(srv, tc.body) {
			t.Errorf("%s: digest not indexed after the post", tc.name)
		}
	}
	if st := svc.Stats(); st.Requests != 1 {
		t.Errorf("service saw %d requests, want 1", st.Requests)
	}
	if st := srv.Stats(); st.RespCacheHits != 7 || st.Served != 8 {
		t.Errorf("node stats %+v, want 7 resp-cache hits / 8 served", st)
	}
	if k, b := cacheSizes(srv); k != 1 || b != 1 {
		t.Errorf("cache sizes byKey=%d byBody=%d, want 1/1", k, b)
	}
}

// TestDigestHitSkipsDecode: a digest hit is answered before the body is
// decoded. An entry planted under the digest of bytes that are not JSON
// at all is served as it is.
func TestDigestHitSkipsDecode(t *testing.T) {
	_, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	body := []byte("not json at all")
	srv.resp.put(respKey{}, respVal{data: []byte(`{"planted":true}`), etag: `"planted"`}, sha256.Sum256(body))
	got := postRaw(t, node.URL, body)
	if got.status != http.StatusOK || string(got.body) != `{"planted":true}` || got.etag != `"planted"` {
		t.Fatalf("digest hit answered %d %q etag %q, want the planted entry", got.status, got.body, got.etag)
	}
}

// TestDigestSkipsDeadline: a wall-clock deadline run is not replayable, so
// its body is never recorded or served by digest — the repeat reaches the
// service again.
func TestDigestSkipsDeadline(t *testing.T) {
	svc, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	body := []byte(strings.Replace(string(wireBody(t, testRequest(t, 10, 62, 8), core.Budget{})),
		`"schema":`, `"budget":{"deadline_ns":60000000000},"schema":`, 1))
	for i := 1; i <= 2; i++ {
		if got := postRaw(t, node.URL, body); got.status != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, got.status, got.body)
		}
		if st := svc.Stats(); st.Requests != uint64(i) {
			t.Fatalf("after post %d the service saw %d requests, want %d", i, st.Requests, i)
		}
	}
	if bodyCached(srv, body) {
		t.Fatal("deadline body recorded by digest")
	}
	if st := srv.Stats(); st.RespCacheHits != 0 {
		t.Fatalf("deadline repeat served from the response cache: %+v", st)
	}
}

// TestDigestKeepsAnytimeEnvelope: an iteration-budgeted body and a plain
// body with the same iteration cap in its options share a fingerprint but
// not a digest or an envelope; interleaved repeats of each return that
// body's own bytes.
func TestDigestKeepsAnytimeEnvelope(t *testing.T) {
	_, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{})
	req := testRequest(t, 16, 63, 8)
	budgeted := wireBody(t, req, core.Budget{MaxIterations: 1})
	req.Options.MaxIterations = 1
	plain := wireBody(t, req, core.Budget{})

	first := postRaw(t, node.URL, budgeted)
	base := postRaw(t, node.URL, plain)
	again := postRaw(t, node.URL, budgeted)
	for _, p := range []posted{first, base, again} {
		if p.status != http.StatusOK {
			t.Fatalf("status %d: %s", p.status, p.body)
		}
	}
	if !bytes.Equal(first.body, again.body) || first.etag != again.etag {
		t.Fatal("budgeted repeat differs from the budgeted cold response")
	}
	var env, flat serve.WireResponse
	if err := json.Unmarshal(again.body, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(base.body, &flat); err != nil {
		t.Fatal(err)
	}
	if env.LowerBound <= 0 || env.Ratio <= 0 {
		t.Errorf("budgeted repeat lost its anytime envelope: %+v", env)
	}
	if flat.LowerBound != 0 || flat.Ratio != 0 || flat.Truncated {
		t.Errorf("plain response carries anytime metadata: lb=%v ratio=%v truncated=%v", flat.LowerBound, flat.Ratio, flat.Truncated)
	}
	if k, b := cacheSizes(srv); k != 2 || b != 2 {
		t.Errorf("cache sizes byKey=%d byBody=%d, want 2/2", k, b)
	}
}

// TestDigestRepeatedFailures: a body that fails fails the same way every
// time — malformed JSON, an invalid graph, and a body over MaxBodyBytes —
// and none is recorded by digest.
func TestDigestRepeatedFailures(t *testing.T) {
	_, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{MaxBodyBytes: 2048})
	valid := wireBody(t, testRequest(t, 6, 64, 4), core.Budget{})
	oversize := wireBody(t, testRequest(t, 40, 64, 16), core.Budget{})
	if len(valid) > 2048 || len(oversize) <= 2048 {
		t.Fatalf("body sizes %d and %d do not straddle the 2048-byte limit", len(valid), len(oversize))
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"malformed", []byte("{not json")},
		{"cyclic graph", []byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[1]},{"et":[1]}],"edges":[{"from":0,"to":1},{"from":1,"to":0}],"cluster":{"p":1,"bandwidth":1}}`)},
		{"no tasks", []byte(`{"schema":"locmps/wire/v1","tasks":[],"cluster":{"p":1,"bandwidth":1}}`)},
		{"oversize", oversize},
	} {
		a := postRaw(t, node.URL, tc.body)
		b := postRaw(t, node.URL, tc.body)
		if a.status != http.StatusBadRequest || b.status != a.status || !bytes.Equal(a.body, b.body) {
			t.Errorf("%s: statuses %d then %d (want 400 twice), bodies %q then %q", tc.name, a.status, b.status, a.body, b.body)
		}
		if bodyCached(srv, tc.body) {
			t.Errorf("%s: failing body recorded by digest", tc.name)
		}
	}
	if got := postRaw(t, node.URL, valid); got.status != http.StatusOK {
		t.Fatalf("valid body under the limit: status %d: %s", got.status, got.body)
	}
}

// TestDigestEviction: the digest index lives and dies with the LRU. After
// RespCacheEntries+1 distinct keys the oldest entry is gone together with
// its digest, so its body misses and reaches the service again.
func TestDigestEviction(t *testing.T) {
	const entries = 3
	svc, srv, node := newNode(t, serve.Config{Shards: 1, WorkersPerShard: 1}, ServerConfig{RespCacheEntries: entries})
	var bodies [][]byte
	for i := range entries + 1 {
		body := wireBody(t, testRequest(t, 6, int64(70+i), 4), core.Budget{})
		bodies = append(bodies, body)
		if got := postRaw(t, node.URL, body); got.status != http.StatusOK {
			t.Fatalf("key %d: status %d: %s", i, got.status, got.body)
		}
		if k, b := cacheSizes(srv); b > k || k > entries {
			t.Fatalf("after key %d: byKey=%d byBody=%d, want byBody <= byKey <= %d", i, k, b, entries)
		}
	}
	if bodyCached(srv, bodies[0]) {
		t.Fatal("evicted key's body digest still indexed")
	}
	before := svc.Stats().Requests
	if got := postRaw(t, node.URL, bodies[0]); got.status != http.StatusOK {
		t.Fatalf("evicted key: status %d", got.status)
	}
	if svc.Stats().Requests != before+1 {
		t.Fatal("evicted key's body was served without reaching the service")
	}
	if k, b := cacheSizes(srv); b > k || k > entries {
		t.Fatalf("byKey=%d byBody=%d, want byBody <= byKey <= %d", k, b, entries)
	}
}

// FuzzScheduleBody: arbitrary bytes POSTed twice to one node get the same
// status and the same body both times, and the node never panics. Bodies
// carrying a wall-clock deadline are compared by status only: they bypass
// the response cache and their responses stamp the scheduling time.
// Inputs that decode to instances too large for a quick search are
// skipped.
func FuzzScheduleBody(f *testing.F) {
	// Small seeds keep the fuzzer's minimization of new inputs cheap.
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[4,2]},{"et":[3,2]},{"et":[2]}],"edges":[{"from":0,"to":2,"volume":1e6}],"cluster":{"p":2,"bandwidth":1e6}}`))
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[4,2]},{"et":[3]}],"cluster":{"p":2,"bandwidth":1},"budget":{"max_iterations":1}}`))
	f.Add([]byte(`{"schema":"locmps/wire/v1","tasks":[{"et":[2,1]},{"et":[3]}],"edges":[{"from":0,"to":1,"volume":10}],"cluster":{"p":2,"bandwidth":1}} trailing`))
	f.Add([]byte(`{"schema":"locmps/wire/v2","tasks":[{"et":[1]}],"cluster":{"p":1,"bandwidth":1},"budget":{"deadline_ns":1}}`))
	f.Add([]byte("{not json"))

	svc := serve.New(serve.Config{Shards: 1, WorkersPerShard: 1})
	f.Cleanup(svc.Close)
	h := NewServer(svc, ServerConfig{MaxBodyBytes: 16 << 10}).Handler()
	// The handler is driven in-process: a loopback server's connection
	// goroutines would make the fuzzer's coverage differ between runs of
	// one input.
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var wr serve.WireRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&wr) == nil
		if decoded && (wr.Cluster.P > 32 || len(wr.Tasks) > 24) {
			t.Skip("instance too large for a quick search")
		}
		a, b := post(body), post(body)
		if a.Code != b.Code {
			t.Fatalf("status %d then %d for %q", a.Code, b.Code, body)
		}
		if decoded && wr.Budget != nil && wr.Budget.DeadlineNS > 0 {
			return
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) || a.Header().Get("ETag") != b.Header().Get("ETag") {
			t.Fatalf("responses differ for %q:\n%s\n%s", body, a.Body, b.Body)
		}
	})
}
