package locmps

import (
	"locmps/internal/serve"
	"locmps/internal/serve/httpserve"
)

// Service is a concurrent scheduling service over the LoC-MPS kernel and
// the baselines: a content-addressed result cache over canonical
// request fingerprints, coalescing of identical in-flight requests, and a
// pool of workers that run the cold searches. Construct with NewService;
// Schedule is safe for concurrent use.
type Service = serve.Service

// ServiceConfig sizes a Service (workers, queue depth per worker, cache
// entries). The zero value selects sensible defaults.
type ServiceConfig = serve.Config

// ServiceRequest is one unit of work: schedule Graph onto Cluster under
// Options.
type ServiceRequest = serve.Request

// ServiceOptions select and parameterize the algorithm for a request; the
// zero value means LoC-MPS with default knobs.
type ServiceOptions = serve.Options

// ServiceStats is a point-in-time snapshot of a Service's counters.
type ServiceStats = serve.Stats

// ServiceKey is the canonical content address of a ServiceRequest.
type ServiceKey = serve.Key

// ErrOverloaded is returned by Service.Schedule when the job queue is
// full; ErrClosed after Close; ErrAnytimeUnsupported by
// Service.ScheduleAnytime for baselines and Dual requests, which have no
// single iterative search to truncate.
var (
	ErrOverloaded         = serve.ErrOverloaded
	ErrClosed             = serve.ErrClosed
	ErrAnytimeUnsupported = serve.ErrAnytimeUnsupported
)

// NewService starts a scheduling service. Call Close to stop its workers.
func NewService(cfg ServiceConfig) *Service { return serve.New(cfg) }

// DiskCache is a disk-backed second-level result cache: one atomic file
// per fingerprint, size-bounded LRU eviction, corruption-tolerant loads.
// Set it as ServiceConfig.L2 so warm results survive process restarts.
type DiskCache = serve.DiskCache

// OpenDiskCache opens (creating if needed) a DiskCache rooted at dir,
// bounded to maxBytes of entries (<= 0 selects the default bound).
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	return serve.OpenDiskCache(dir, maxBytes)
}

// HTTPServer exposes a Service over HTTP/JSON (POST /v1/schedule,
// GET /v1/stats, GET /healthz) with admission control and load shedding.
type HTTPServer = httpserve.Server

// HTTPServerConfig tunes an HTTPServer; the zero value selects defaults.
type HTTPServerConfig = httpserve.ServerConfig

// NewHTTPServer wraps svc in an HTTP node. The caller keeps ownership of
// svc and serves node.Handler() however it likes.
func NewHTTPServer(svc *Service, cfg HTTPServerConfig) *HTTPServer {
	return httpserve.NewServer(svc, cfg)
}

// Client talks to a fleet of HTTPServer nodes: consistent-hash routing on
// request fingerprints, hedged retries against a second replica, failover,
// and connection reuse.
type Client = httpserve.Client

// ClientConfig configures a Client; Nodes is required.
type ClientConfig = httpserve.ClientConfig

// ClientStats exposes a Client's hedging and failover counters.
type ClientStats = httpserve.ClientStats

// NodeStats is one node's GET /v1/stats payload.
type NodeStats = httpserve.NodeStats

// NewClient builds a fleet client. Close it to release pooled connections.
func NewClient(cfg ClientConfig) (*Client, error) { return httpserve.NewClient(cfg) }
