package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"locmps/internal/audit"
	"locmps/internal/sched"
	"locmps/internal/schedule"
)

// l2Suffix names L2 entry files: <64-hex-fingerprint>.sched.json. Anything
// else in the directory is ignored, so an L2 dir can live alongside other
// state.
const l2Suffix = ".sched.json"

// DiskCache is a disk-backed second-level result cache: one file per
// fingerprint holding the wire-encoded schedule (WireResponse), so warm
// results survive process restarts — a redeployed node answers yesterday's
// cold searches from disk instead of re-running them.
//
//   - Writes are atomic: encode to a temp file in the same directory, then
//     rename. Readers (and crashed writers) can never observe a torn file.
//   - The cache is size-bounded: entries above MaxBytes are evicted least
//     recently used, where "use" is Get or Put in this process and file
//     mtime order seeds the recency list at startup.
//   - Loads are corruption tolerant: an entry that fails to decode (torn
//     disk, schema drift, truncation), was stored for another cluster or
//     fails the internal/audit oracle (a tampered placement) is deleted
//     and reported as a miss; the worker falls back to a cold search and
//     overwrites it.
//
// DiskCache implements SecondLevel and is safe for concurrent use.
type DiskCache struct {
	dir string
	max int64

	mu    sync.Mutex
	ll    *list.List               // front = most recently used, of *l2Ent
	byKey map[string]*list.Element // keyed by hex fingerprint
	size  int64

	hits, misses, puts, evictions, corrupt atomic.Uint64
}

type l2Ent struct {
	hex  string
	size int64
}

// DefaultL2MaxBytes bounds a DiskCache when the caller passes maxBytes <= 0:
// 256 MiB, thousands of mid-scale schedules.
const DefaultL2MaxBytes = 256 << 20

// OpenDiskCache opens (creating if needed) a disk cache rooted at dir,
// bounded to maxBytes of entry files (<= 0 selects DefaultL2MaxBytes).
// Existing entries are indexed by file mtime — oldest first — and evicted
// immediately if the directory already exceeds the bound.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultL2MaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening L2 cache: %w", err)
	}
	c := &DiskCache{dir: dir, max: maxBytes, ll: list.New(), byKey: make(map[string]*list.Element)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning L2 cache: %w", err)
	}
	type seed struct {
		hex   string
		size  int64
		mtime int64
	}
	var seeds []seed
	for _, e := range entries {
		name := e.Name()
		hex, ok := strings.CutSuffix(name, l2Suffix)
		if !ok || e.IsDir() {
			continue
		}
		if _, err := ParseKey(hex); err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		seeds = append(seeds, seed{hex: hex, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mtime < seeds[j].mtime })
	for _, s := range seeds { // oldest pushed first ends up at the back
		c.byKey[s.hex] = c.ll.PushFront(&l2Ent{hex: s.hex, size: s.size})
		c.size += s.size
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// Dir reports the cache's root directory.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(hex string) string { return filepath.Join(c.dir, hex+l2Suffix) }

// Get implements SecondLevel: it loads and decodes the entry stored under
// key against the request's graph, then audits it against the request.
// Every failure mode — absent file, unreadable file, torn or drifted
// payload, a schedule for another cluster or one the oracle rejects — is a
// miss; corrupt files are deleted so they are rewritten rather than
// re-tripped-over.
func (c *DiskCache) Get(key Key, req Request) (*schedule.Schedule, bool, bool) {
	hex := HexKey(key)
	c.mu.Lock()
	e, ok := c.byKey[hex]
	if ok {
		c.ll.MoveToFront(e)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false, false
	}
	data, err := os.ReadFile(c.path(hex))
	if err != nil {
		c.drop(hex, false)
		c.misses.Add(1)
		return nil, false, false
	}
	var wr WireResponse
	s, err := func() (*schedule.Schedule, error) {
		if err := json.Unmarshal(data, &wr); err != nil {
			return nil, err
		}
		if !WireSchemaOK(wr.Schema) {
			return nil, fmt.Errorf("schema %q", wr.Schema)
		}
		s, err := wr.Schedule.ToSchedule(req.Graph)
		if err != nil {
			return nil, err
		}
		if s.Cluster != req.Cluster {
			return nil, fmt.Errorf("cluster %+v, request %+v", s.Cluster, req.Cluster)
		}
		bb := req.Options.normalized().BlockBytes
		if req.portfolio() {
			bb = 0 // raced engines run their default configurations
		}
		if err := audit.Check(req.Graph, s, audit.Options{BlockBytes: bb}).Err(); err != nil {
			return nil, err
		}
		return s, nil
	}()
	if err != nil {
		c.drop(hex, true)
		c.misses.Add(1)
		return nil, false, false
	}
	c.hits.Add(1)
	return s, wr.Truncated, true
}

// Put implements SecondLevel: it wire-encodes the schedule and installs it
// atomically (temp file + rename), then evicts least-recently-used entries
// until the cache fits its byte bound. Errors are swallowed — an L2 that
// cannot write degrades to a smaller cache, never to a failed request.
func (c *DiskCache) Put(key Key, req Request, s *schedule.Schedule, truncated bool) {
	hex := HexKey(key)
	wr := WireResponse{
		Schema:    WireVersion,
		Schedule:  *WireFromSchedule(s, req.Graph.M()),
		Truncated: truncated,
	}
	data, err := json.Marshal(&wr)
	if err != nil {
		return
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(hex)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	c.puts.Add(1)
	sz := int64(len(data))
	c.mu.Lock()
	if e, ok := c.byKey[hex]; ok {
		c.size += sz - e.Value.(*l2Ent).size
		e.Value.(*l2Ent).size = sz
		c.ll.MoveToFront(e)
	} else {
		c.byKey[hex] = c.ll.PushFront(&l2Ent{hex: hex, size: sz})
		c.size += sz
	}
	c.evictLocked()
	c.mu.Unlock()
}

// winnerSuffix names portfolio winner records: <64-hex-fingerprint>
// .winner.json. The suffix differs from l2Suffix, so the startup scan and
// the byte-bound LRU ignore these files entirely — each holds ~100 bytes
// (a schema tag and an engine name), a routing record rather than a cached
// result. Deleting them is always safe: a missing record is a miss and the
// portfolio simply races again.
const winnerSuffix = ".winner.json"

// winnerSchema versions the winner record payload.
const winnerSchema = "locmps/winner/v1"

// wireWinner is the on-disk winner record.
type wireWinner struct {
	Schema string `json:"schema"`
	Engine string `json:"engine"`
}

func (c *DiskCache) winnerPath(hex string) string {
	return filepath.Join(c.dir, hex+winnerSuffix)
}

// GetWinner implements WinnerStore: it loads the engine name recorded for a
// portfolio fingerprint. Every failure mode — absent, unreadable, torn or
// drifted record — is a miss; corrupt records are deleted. A well-formed
// record naming an engine this build does not register (a foreign or stale
// record) is a miss too, left for the next race's PutWinner to overwrite.
func (c *DiskCache) GetWinner(key Key) (string, bool) {
	path := c.winnerPath(HexKey(key))
	data, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	var w wireWinner
	if err := json.Unmarshal(data, &w); err != nil || w.Schema != winnerSchema || w.Engine == "" {
		os.Remove(path)
		c.corrupt.Add(1)
		return "", false
	}
	if !sched.Known(w.Engine) {
		return "", false
	}
	return w.Engine, true
}

// PutWinner implements WinnerStore: it records a race's winning engine
// atomically (temp file + rename). Errors are swallowed — a store that
// cannot write degrades to re-racing, never to a failed request.
func (c *DiskCache) PutWinner(key Key, engine string) {
	if engine == "" {
		return
	}
	data, err := json.Marshal(&wireWinner{Schema: winnerSchema, Engine: engine})
	if err != nil {
		return
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.winnerPath(HexKey(key))); err != nil {
		os.Remove(tmp.Name())
	}
}

// drop removes one entry from the index and disk (after a read failure or
// corruption); the caller counts the miss.
func (c *DiskCache) drop(hex string, corrupt bool) {
	c.mu.Lock()
	if e, ok := c.byKey[hex]; ok {
		c.size -= e.Value.(*l2Ent).size
		c.ll.Remove(e)
		delete(c.byKey, hex)
	}
	c.mu.Unlock()
	os.Remove(c.path(hex))
	if corrupt {
		c.corrupt.Add(1)
	}
}

// evictLocked deletes LRU entries until the cache fits. Caller holds mu.
func (c *DiskCache) evictLocked() {
	for c.size > c.max && c.ll.Len() > 1 { // always keep the newest entry
		back := c.ll.Back()
		ent := back.Value.(*l2Ent)
		c.ll.Remove(back)
		delete(c.byKey, ent.hex)
		c.size -= ent.size
		os.Remove(c.path(ent.hex))
		c.evictions.Add(1)
	}
}

// L2Stats is a point-in-time snapshot of a DiskCache.
type L2Stats struct {
	// Entries and Bytes describe what is currently indexed on disk.
	Entries int
	Bytes   int64
	// Hits/Misses count Get outcomes; Puts counts successful writes;
	// Evictions counts size-bound deletions; Corrupt counts entries
	// deleted because they failed to decode.
	Hits, Misses, Puts, Evictions, Corrupt uint64
}

// Stats snapshots the cache counters.
func (c *DiskCache) Stats() L2Stats {
	c.mu.Lock()
	st := L2Stats{Entries: c.ll.Len(), Bytes: c.size}
	c.mu.Unlock()
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	st.Puts = c.puts.Load()
	st.Evictions = c.evictions.Load()
	st.Corrupt = c.corrupt.Load()
	return st
}
