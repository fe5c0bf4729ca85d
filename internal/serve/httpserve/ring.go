package httpserve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"locmps/internal/serve"
)

// hashRing is a consistent-hash ring over the configured nodes: each node
// projects vnodes points onto a uint64 circle, and a request fingerprint is
// owned by the first point clockwise from its hash. Every fingerprint
// therefore has one home node (cache locality: repeat requests for one
// instance always land where its result is cached) and a deterministic
// second replica for hedging and failover — and adding or removing a node
// remaps only the keys adjacent to its points, not the whole keyspace.
type hashRing struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	h    uint64
	node int
}

// newRing builds the ring. The point hashes come from SHA-256 of
// "node#vnode", so every client that agrees on the node list agrees on the
// ring — no coordination needed.
func newRing(nodes []string, vnodes int) *hashRing {
	r := &hashRing{nodes: nodes}
	for i, n := range nodes {
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", n, v)))
			r.points = append(r.points, ringPoint{h: binary.LittleEndian.Uint64(sum[:8]), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// keyHash projects a fingerprint onto the ring's circle: its leading 8
// bytes.
func keyHash(k serve.Key) uint64 { return binary.LittleEndian.Uint64(k[:8]) }

// pick returns the key's home node and the next distinct node clockwise
// (the hedge/failover replica). secondary is empty when only one node
// exists.
func (r *hashRing) pick(h uint64) (primary, secondary string) {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	p := r.points[i].node
	for j := 1; j < len(r.points); j++ {
		if n := r.points[(i+j)%len(r.points)].node; n != p {
			return r.nodes[p], r.nodes[n]
		}
	}
	return r.nodes[p], ""
}
