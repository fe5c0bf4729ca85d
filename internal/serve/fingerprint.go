// Package serve turns the optimized LoC-MPS kernel into a concurrent
// scheduling service: a content-addressed result cache over canonical
// request fingerprints, singleflight-style coalescing of identical in-flight
// requests, and a pool of worker goroutines that run the cold searches.
// It is the throughput layer the experiment sweeps and the load generator
// run on.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/sched"
)

// Options select and parameterize the scheduling algorithm for a request.
// The zero value means "the paper's LoC-MPS with default knobs".
type Options struct {
	// Algorithm is a sched.ByName display name ("LoC-MPS", "LoC-MPS-NoBF",
	// "iCASLB", "CPR", "CPA", "TASK", "DATA", "M-HEFT", "OPT"); empty
	// selects "LoC-MPS".
	Algorithm string
	// Dual runs ScheduleDual (task-parallel and saturated starts, best of
	// both) instead of the single search. LoC-MPS-family algorithms only.
	Dual bool
	// LookAheadDepth, TopFraction and BlockBytes override the LoC-MPS
	// search knobs and the redistribution model's block-cyclic block size;
	// zero selects the respective default. Ignored (and excluded from the
	// fingerprint) for the non-iterative baselines, which have no such
	// knobs.
	LookAheadDepth int
	TopFraction    float64
	BlockBytes     float64
	// MaxIterations caps the outer repeat-until rounds of the anytime
	// LoC-MPS search (core.Budget.MaxIterations); 0 means run to natural
	// termination. A capped search is deterministic — same inputs, same
	// budget, bit-identical schedule — so the cap is part of the
	// fingerprint and capped results cache and coalesce like full runs.
	// Wall-clock deadlines are NOT options: they are per-call state passed
	// to ScheduleAnytime and never fingerprinted. LoC-MPS-family
	// single-search requests only (ignored for baselines, rejected with
	// Dual).
	MaxIterations int
}

// locMPSFamily reports whether the named algorithm is a *core.LoCMPS
// configuration, i.e. whether the search knobs apply to it.
func locMPSFamily(name string) bool {
	switch name {
	case "", "LoC-MPS", "LoC-MPS-NoBF", "iCASLB":
		return true
	}
	return false
}

// normalized resolves defaults so that every spelling of the same effective
// configuration fingerprints (and therefore caches and coalesces)
// identically: Options{} and Options{Algorithm: "LoC-MPS", LookAheadDepth:
// 20, ...} are the same request, and knobs that an algorithm ignores are
// zeroed out of the key.
func (o Options) normalized() Options {
	if o.Algorithm == "" {
		o.Algorithm = "LoC-MPS"
	}
	if !locMPSFamily(o.Algorithm) {
		o.Dual = false
		o.LookAheadDepth = 0
		o.TopFraction = 0
		o.BlockBytes = 0
		o.MaxIterations = 0
		return o
	}
	if o.MaxIterations < 0 {
		o.MaxIterations = 0
	}
	if o.LookAheadDepth <= 0 {
		o.LookAheadDepth = core.DefaultLookAheadDepth
	}
	if o.TopFraction <= 0 {
		o.TopFraction = core.DefaultTopFraction
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = core.DefaultBlockBytes
	}
	return o
}

// Request is one unit of work for the service: schedule Graph onto Cluster
// under Options — or, when Portfolio is set, race a portfolio of engines
// and return the winner.
type Request struct {
	Graph   *model.TaskGraph
	Cluster model.Cluster
	Options Options
	// Portfolio, when non-empty, selects portfolio mode: the named engines
	// (sched registry names, no duplicates) race on the instance and the
	// minimum-makespan schedule wins, ties broken toward the earliest name
	// — the list's ORDER is part of the request's identity and its
	// fingerprint. Each engine runs at its default knobs; Options must be
	// the zero value. Repeat traffic for the same fingerprint routes
	// straight to the recorded winning engine (see Stats.WinnerHits)
	// instead of re-racing.
	Portfolio []string
}

// portfolio reports whether the request is in portfolio mode.
func (r Request) portfolio() bool { return len(r.Portfolio) > 0 }

// FingerprintVersion names the canonical fingerprint scheme. It is hashed
// into every Key, so bumping it invalidates every cache tier at once (L1,
// L2 files on disk, cross-node routing). Any change to what Fingerprint
// hashes or how MUST bump this string — the golden fixtures in
// testdata/fingerprints.json fail loudly if the scheme drifts without a
// bump, because nodes disagreeing on keys silently partition the cache.
const FingerprintVersion = "locmps/serve/v3"

// Key is the content address of a request: a SHA-256 digest of everything
// the scheduler's output depends on.
type Key [sha256.Size]byte

// String renders the key's leading bytes for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Fingerprint computes the request's canonical content key. Two requests
// receive the same key iff every input the scheduler consults is equal:
//
//   - graph structure and data volumes, hashed in dense edge-id order
//     (sorted by (From, To)), so the order edges were handed to
//     NewTaskGraph — an artifact of map iteration or slice construction at
//     the call site — never affects the key;
//   - per-task execution-time curves, hashed as et(t, 1..P) — exactly the
//     values the scheduler reads. Profiles that differ parametrically but
//     agree on every point up to the cluster size schedule identically and
//     deliberately share a key. Task names are cosmetic (they label Gantt
//     charts, never placements) and are excluded;
//   - the cluster (P, bandwidth, overlap), which also covers the
//     redistribution model's aggregate-bandwidth inputs;
//   - the normalized scheduler options, including the redistribution
//     block size;
//   - the portfolio engine list, in order — the order is semantic (it is
//     the deterministic tie-break), so permutations are distinct requests.
//
// It validates the request and returns an error for an empty graph or an
// invalid cluster.
func (r Request) Fingerprint() (Key, error) {
	if err := r.validate(); err != nil {
		return Key{}, err
	}
	h := newKeyHasher()
	h.raw(FingerprintVersion)
	o := r.Options.normalized()
	h.str(o.Algorithm)
	h.bit(o.Dual)
	h.u64(uint64(o.LookAheadDepth))
	h.f64(o.TopFraction)
	h.f64(o.BlockBytes)
	h.u64(uint64(o.MaxIterations))
	h.u64(uint64(len(r.Portfolio)))
	for _, name := range r.Portfolio {
		h.str(name)
	}
	h.instance(r.Graph, r.Cluster)
	return h.sum(), nil
}

// validate rejects requests no key can be computed for.
func (r Request) validate() error {
	if r.Graph == nil || r.Graph.N() == 0 {
		return fmt.Errorf("serve: request has an empty task graph")
	}
	if r.portfolio() {
		if r.Options != (Options{}) {
			return fmt.Errorf("serve: portfolio requests take no options (engines run at their defaults)")
		}
		seen := make(map[string]bool, len(r.Portfolio))
		for _, name := range r.Portfolio {
			if !sched.Known(name) {
				return fmt.Errorf("serve: portfolio: unknown algorithm %q", name)
			}
			if seen[name] {
				return fmt.Errorf("serve: portfolio: duplicate engine %q", name)
			}
			seen[name] = true
		}
	}
	return r.Cluster.Validate()
}

// keyHasher streams the canonical encoding of request components into a
// SHA-256 digest.
type keyHasher struct {
	h   hash.Hash
	buf []byte
}

func newKeyHasher() *keyHasher {
	return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 256)}
}

func (k *keyHasher) raw(s string) { k.buf = append(k.buf, s...) }
func (k *keyHasher) u64(v uint64) { k.buf = binary.LittleEndian.AppendUint64(k.buf, v) }
func (k *keyHasher) f64(v float64) {
	k.u64(math.Float64bits(v))
}
func (k *keyHasher) str(s string) {
	k.u64(uint64(len(s)))
	k.buf = append(k.buf, s...)
}
func (k *keyHasher) bit(b bool) {
	if b {
		k.buf = append(k.buf, 1)
	} else {
		k.buf = append(k.buf, 0)
	}
}
func (k *keyHasher) flush() {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
}

// instance hashes everything the scheduler's output depends on apart from
// its options: the cluster, the per-task execution-time curves up to P, and
// the graph structure with data volumes in dense edge-id order.
func (k *keyHasher) instance(tg *model.TaskGraph, c model.Cluster) {
	k.u64(uint64(c.P))
	k.f64(c.Bandwidth)
	k.bit(c.Overlap)
	k.flush()

	P := c.P
	k.u64(uint64(tg.N()))
	k.flush()
	for t := 0; t < tg.N(); t++ {
		prof := tg.Tasks[t].Profile
		for p := 1; p <= P; p++ {
			k.f64(prof.Time(p))
		}
		k.flush()
	}
	// Edges() is dense-id order: sorted (From, To), independent of the
	// order the caller inserted them.
	edges := tg.Edges()
	k.u64(uint64(len(edges)))
	for _, e := range edges {
		k.u64(uint64(e.From))
		k.u64(uint64(e.To))
		k.f64(e.Volume)
	}
	k.flush()
}

func (k *keyHasher) sum() Key {
	k.flush()
	var out Key
	k.h.Sum(out[:0])
	return out
}
