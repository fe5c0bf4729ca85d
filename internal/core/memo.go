package core

import (
	"slices"
	"sync"

	"locmps/internal/schedule"
)

// memoEntryLimit bounds the number of cached allocation vectors per search
// so a pathological run cannot hold an unbounded number of schedules live.
// A mid-scale search evaluates a few thousand distinct vectors, far below
// the cap; once full, lookups keep working but new results are not
// retained.
const memoEntryLimit = 1 << 16

// fnv1aVector fingerprints a processor-count vector with FNV-1a over the
// little-endian bytes of each count. Vector length and element order are
// part of the digest, so only genuinely equal vectors (same tasks, same
// widths) collide by construction — anything else is a hash accident the
// bucket's full compare catches.
func fnv1aVector(np []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range np {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

// memoEntry is one evaluated allocation vector: the (deterministic) LoCBS
// result and the lazily derived critical path of that schedule.
type memoEntry struct {
	np    []int
	sched *schedule.Schedule
	// cp caches CP(G') of sched under np. The schedule and the critical
	// path are pure functions of the vector within one search, so both
	// belong to the entry.
	cp []int
}

// allocMemo is the per-search allocation-vector memo table (§III.C/§III.E
// tentpole): it maps already-evaluated allocation vectors to their LoCBS
// schedule so neither the bounded look-ahead nor the repeat-until outer
// loop ever pays for the same vector twice. LoCBS is deterministic, so a
// hit is bit-identical to a fresh run by construction.
//
// The table is keyed by a FNV-1a fingerprint of the processor-count vector;
// buckets chain entries and every probe does a full vector compare, so a
// fingerprint collision costs a comparison, never a wrong schedule. All
// methods take the table's lock, so they are safe for concurrent use; the
// search goroutine that owns the table is its only user, so the lock is
// uncontended.
type allocMemo struct {
	mu      sync.Mutex
	buckets map[uint64][]*memoEntry
	entries int
	// hash is fnv1aVector except in tests, which inject constant hashes to
	// force the collision path.
	hash func([]int) uint64
}

func newAllocMemo() *allocMemo {
	return &allocMemo{buckets: make(map[uint64][]*memoEntry), hash: fnv1aVector}
}

// find returns the entry for np, or nil. Caller must hold m.mu.
func (m *allocMemo) find(np []int) *memoEntry {
	for _, e := range m.buckets[m.hash(np)] {
		if slices.Equal(e.np, np) {
			return e
		}
	}
	return nil
}

// lookupSched returns the cached schedule for np, or nil.
func (m *allocMemo) lookupSched(np []int) *schedule.Schedule {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(np); e != nil {
		return e.sched
	}
	return nil
}

// insert caches the schedule for np (copying the vector — callers reuse
// their buffers). An existing entry wins: LoCBS is deterministic, so a
// duplicate insert carries a bit-identical schedule, and keeping the first
// keeps the critical path cached against it valid.
func (m *allocMemo) insert(np []int, s *schedule.Schedule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(np) != nil || m.entries >= memoEntryLimit {
		return
	}
	h := m.hash(np)
	m.buckets[h] = append(m.buckets[h],
		&memoEntry{np: append([]int(nil), np...), sched: s})
	m.entries++
}

// lookupCP returns the cached critical path for np, provided the entry's
// schedule is the one the caller derived it from (the pointer check keeps a
// stale pairing impossible).
func (m *allocMemo) lookupCP(np []int, sched *schedule.Schedule) ([]int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(np); e != nil && e.sched == sched && e.cp != nil {
		return e.cp, true
	}
	return nil, false
}

// storeCP records the critical path for np if the vector is cached with the
// given schedule. The path is copied: callers hand in scratch-backed slices.
func (m *allocMemo) storeCP(np []int, sched *schedule.Schedule, cp []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(np); e != nil && e.sched == sched && e.cp == nil {
		e.cp = append([]int(nil), cp...)
	}
}
