package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"locmps/internal/serve"
	"locmps/internal/serve/httpserve"
)

// maxConns caps the benchmark's HTTP connections (and request goroutines):
// all load comes from this one process, at most one sender per core.
const maxConns = 2

// Header names carrying a traced request's ids from client to handler.
const (
	hdrReq  = "X-E2ebench-Req"
	hdrSpan = "X-E2ebench-Span"
)

// node is an in-process scheduling node — serve.Service behind an
// httpserve.Server with its default config — on a loopback listener, plus
// the client that drives it.
type node struct {
	svc    *serve.Service
	srv    *httpserve.Server
	hs     *http.Server
	url    string
	client *http.Client
	tr     *tracer
	served chan error
}

// startNode boots a node. With a non-nil tracer the handler is wrapped to
// record an httpserve.handler span per request and post records the
// client round trip.
func startNode(tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{svc: serve.New(serve.Config{}), tr: tr, served: make(chan error, 1)}
	n.srv = httpserve.NewServer(n.svc, httpserve.ServerConfig{})
	h := n.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
			id := tr.newID()
			start := time.Now()
			inner.ServeHTTP(w, r)
			tr.add(id, parent, req, "httpserve.handler", start, time.Now())
		})
	}
	n.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.served <- n.hs.Serve(ln) }()
	n.url = "http://" + ln.Addr().String() + "/v1/schedule"
	n.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return n, nil
}

// post sends one schedule request and returns the response body. Any
// non-200 status is an error. req numbers the request for tracing.
func (n *node) post(body []byte, req int64) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, n.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := n.tr.newID()
	if n.tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := n.client.Do(hr)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	n.tr.add(id, 0, req, "client.request", start, time.Now())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// close shuts the node down and waits for its serving goroutine.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	n.client.CloseIdleConnections()
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.svc.Close()
	return err
}
