package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"locmps/internal/serve"
	"locmps/internal/serve/httpserve"
)

// TestSlowBodyIsCutOff: a client that dribbles its request body is cut off
// by the body read deadline, and its admission slot is released. The test
// shortens the body timeout to keep the run short; the other limits are
// checked as built.
func TestSlowBodyIsCutOff(t *testing.T) {
	svc := serve.New(serve.Config{Shards: 1, WorkersPerShard: 1})
	defer svc.Close()
	node := httpserve.NewServer(svc, httpserve.ServerConfig{})
	const cut = 300 * time.Millisecond
	hs := newHTTPServer(node.Handler(), cut)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != 0 ||
		hs.IdleTimeout != idleTimeout || hs.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("server limits not set: %+v", hs)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The announced body would take 1000 × 20 ms = 20 s to arrive.
	const size = 1000
	if _, err := fmt.Fprintf(conn, "POST /v1/schedule HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", size); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	go func() {
		for range size {
			if _, err := conn.Write([]byte(" ")); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	elapsed := time.Since(start)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("dribbled body answered %d, want 400", resp.StatusCode)
		}
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never cut the slow client off")
	}
	if elapsed < cut || elapsed > 5*time.Second {
		t.Errorf("cut off after %v, want soon after the %v body timeout", elapsed, cut)
	}
	deadline := time.Now().Add(5 * time.Second)
	for node.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot still held after the cut")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowHandlerOutlivesBodyTimeout: a handler that reads its whole body
// and then works past the body timeout keeps its request context and
// answers in full: the body deadline bounds the body only, and a cancelled
// context would leave the client an empty 200.
func TestSlowHandlerOutlivesBodyTimeout(t *testing.T) {
	const cut = 200 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(3 * cut):
		}
		io.WriteString(w, "done")
	})
	hs := newHTTPServer(h, cut)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	// Two requests on one kept-alive connection: the cleared deadline must
	// not leak into the next request either.
	client := &http.Client{Timeout: 10 * time.Second}
	for i := range 2 {
		resp, err := client.Post("http://"+ln.Addr().String()+"/", "application/json", strings.NewReader(`{"tasks":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != "done" {
			t.Fatalf("request %d: slow handler answered %d %q, want 200 \"done\"", i, resp.StatusCode, body)
		}
	}
}

// serveNode starts a loopback schedserved node with the built limits and
// lets tune shorten them before it starts serving.
func serveNode(t *testing.T, tune func(*http.Server)) (*httpserve.Server, string) {
	t.Helper()
	svc := serve.New(serve.Config{Shards: 1, WorkersPerShard: 1})
	t.Cleanup(svc.Close)
	node := httpserve.NewServer(svc, httpserve.ServerConfig{})
	hs := newHTTPServer(node.Handler(), bodyReadTimeout)
	tune(hs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return node, ln.Addr().String()
}

// waitClosed reads from conn until the server closes it and reports how
// long that took from start. A read that times out fails the test.
func waitClosed(t *testing.T, conn net.Conn, start time.Time) time.Duration {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the connection")
	}
	return time.Since(start)
}

// TestSlowHeaderIsCutOff: a client that sends half a request line and
// stalls is disconnected after the header timeout, without ever taking an
// admission slot, while a well-formed request on another connection is
// served in the meantime. The test shortens the header timeout to keep the
// run short.
func TestSlowHeaderIsCutOff(t *testing.T) {
	const cut = 300 * time.Millisecond
	node, addr := serveNode(t, func(hs *http.Server) { hs.ReadHeaderTimeout = cut })

	// The server's header deadline can start as soon as it accepts, which
	// may be before Dial returns, so the clock starts before dialing.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/sche"); err != nil {
		t.Fatal(err)
	}

	body := `{"schema":"locmps/wire/v2","tasks":[{"et":[4,2]},{"et":[3,2]},{"et":[2]}],"edges":[{"from":0,"to":2,"volume":1e6}],"cluster":{"p":2,"bandwidth":1e6}}`
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+addr+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed request beside the stalled one answered %d, want 200", resp.StatusCode)
	}
	if in := node.Stats().Inflight; in != 0 {
		t.Errorf("stalled header holds %d admission slots, want 0", in)
	}

	if elapsed := waitClosed(t, conn, start); elapsed < cut || elapsed > 5*time.Second {
		t.Errorf("closed after %v, want soon after the %v header timeout", elapsed, cut)
	}
	if served := node.Stats().Served; served != 1 {
		t.Errorf("Served = %d, want only the well-formed request", served)
	}
}

// TestIdleConnectionIsClosed: a kept-alive connection that sends nothing
// after its response is closed by the server once the idle timeout passes.
// The test shortens the idle timeout to keep the run short.
func TestIdleConnectionIsClosed(t *testing.T) {
	const idle = 300 * time.Millisecond
	_, addr := serveNode(t, func(hs *http.Server) { hs.IdleTimeout = idle })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server starts the idle clock only after it has written the
	// response, so the close cannot come sooner than idle after this.
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: node\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("healthz answered %d (close=%v), want a kept-alive 200", resp.StatusCode, resp.Close)
	}

	if elapsed := waitClosed(t, conn, start); elapsed < idle || elapsed > 5*time.Second {
		t.Errorf("closed after %v, want soon after the %v idle timeout", elapsed, idle)
	}
}
