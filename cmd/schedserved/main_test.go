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
