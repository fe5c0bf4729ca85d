// Command schedserved runs one scheduling-service node: a serve.Service
// behind the HTTP/JSON transport, optionally backed by a disk L2 cache so
// warm results survive restarts.
//
//	schedserved -addr 127.0.0.1:8080 -l2 /var/cache/locmps
//
// The node serves POST /v1/schedule, GET /v1/stats and GET /healthz and
// shuts down gracefully on SIGINT/SIGTERM, printing a final stats line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"locmps/internal/serve"
	"locmps/internal/serve/httpserve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedserved:", err)
		os.Exit(1)
	}
}

// Connection limits. The handler reads a whole request body before it
// decodes anything, so a client that trickles its body holds an admission
// slot and a body buffer for as long as the read lasts; bodyReadTimeout
// bounds that read (64 MiB, the default body bound, needs about 1 MiB/s).
// It is a read deadline set per request and cleared once the body is read,
// not http.Server.ReadTimeout, so that a search running past it never
// depends on how net/http treats a whole-request deadline after the body.
// Handling time after the body is read is not limited here: the request
// context carries the client's own cancellation down to the search.
const (
	readHeaderTimeout = 10 * time.Second
	bodyReadTimeout   = time.Minute
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps h in a server with the node's connection limits,
// giving each request body bodyTimeout to arrive.
func newHTTPServer(h http.Handler, bodyTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           limitBodyRead(h, bodyTimeout),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// limitBodyRead sets a read deadline d from now on the connection before h
// runs and clears it when h has read the whole body, so the deadline cuts
// off a slow body but never a slow handler. A request without a body gets
// no deadline: the server is already reading ahead on its connection.
func limitBodyRead(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		if r.ContentLength != 0 && rc.SetReadDeadline(time.Now().Add(d)) == nil {
			r.Body = &deadlineBody{ReadCloser: r.Body, rc: rc}
		}
		h.ServeHTTP(w, r)
	})
}

// deadlineBody clears the connection's read deadline once the body has
// been read to its end. A failed read leaves it set, so the rest of a cut
// off body is not waited for either.
type deadlineBody struct {
	io.ReadCloser
	rc *http.ResponseController
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.rc.SetReadDeadline(time.Time{})
	}
	return n, err
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", 0, "search workers (0 = GOMAXPROCS, capped at 8)")
		queue       = flag.Int("queue", 0, "queued cold jobs per worker (0 = 64)")
		cacheEnts   = flag.Int("cache-entries", 0, "L1 result-cache entries in total (0 = 1024)")
		l2dir       = flag.String("l2", "", "disk L2 cache directory (empty = no L2)")
		l2max       = flag.Int64("l2-max-bytes", 0, "disk L2 size bound in bytes (0 = default)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently handled requests before shedding (0 = default)")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEnts,
	}
	var dc *serve.DiskCache
	if *l2dir != "" {
		var err error
		if dc, err = serve.OpenDiskCache(*l2dir, *l2max); err != nil {
			return err
		}
		cfg.L2 = dc
	}
	svc := serve.New(cfg)
	defer svc.Close()
	node := httpserve.NewServer(svc, httpserve.ServerConfig{MaxInflight: *maxInflight})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(node.Handler(), bodyReadTimeout)
	fmt.Printf("schedserved listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}

	st := node.Stats()
	out, _ := json.Marshal(&st)
	fmt.Printf("schedserved final stats: %s\n", out)
	if dc != nil {
		l2 := dc.Stats()
		fmt.Printf("schedserved L2: entries=%d bytes=%d hits=%d misses=%d puts=%d evictions=%d corrupt=%d\n",
			l2.Entries, l2.Bytes, l2.Hits, l2.Misses, l2.Puts, l2.Evictions, l2.Corrupt)
	}
	return nil
}
