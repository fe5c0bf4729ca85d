package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/sched"
)

func l2Request(t *testing.T, tasks int, seed int64) Request {
	t.Helper()
	return Request{
		Graph:   testGraph(t, tasks, seed),
		Cluster: model.Cluster{P: 8, Bandwidth: 12.5e6, Overlap: true},
	}
}

// TestDiskCacheRoundTrip: Put then Get returns a bit-identical schedule.
func TestDiskCacheRoundTrip(t *testing.T) {
	dc, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := l2Request(t, 10, 1)
	key, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1})
	defer svc.Close()
	s, err := svc.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := dc.Get(key, req); ok {
		t.Fatal("hit on empty cache")
	}
	dc.Put(key, req, s, false)
	got, truncated, ok := dc.Get(key, req)
	if !ok || truncated {
		t.Fatalf("Get after Put: ok=%v truncated=%v", ok, truncated)
	}
	if diff := equalSchedules(s, got, req.Graph.M()); diff != "" {
		t.Fatalf("disk round trip changed the schedule: %s", diff)
	}
	st := dc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
}

// TestDiskCacheSurvivesRestart: a fresh DiskCache over the same directory
// serves entries written by the previous one — the whole point of the tier.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := l2Request(t, 12, 2)
	key, _ := req.Fingerprint()
	svc := New(Config{Workers: 1})
	s, err := svc.Schedule(req)
	svc.Close()
	if err != nil {
		t.Fatal(err)
	}
	dc1, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	dc1.Put(key, req, s, true)

	dc2, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, truncated, ok := dc2.Get(key, req)
	if !ok {
		t.Fatal("entry lost across restart")
	}
	if !truncated {
		t.Fatal("truncation flag lost across restart")
	}
	if diff := equalSchedules(s, got, req.Graph.M()); diff != "" {
		t.Fatalf("restarted cache changed the schedule: %s", diff)
	}
}

// TestDiskCacheCorruptionTolerated: torn or garbage entries are misses and
// are deleted so the slot gets rewritten.
func TestDiskCacheCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := l2Request(t, 10, 3)
	key, _ := req.Fingerprint()
	svc := New(Config{Workers: 1})
	defer svc.Close()
	s, err := svc.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	dc.Put(key, req, s, false)
	path := filepath.Join(dir, HexKey(key)+l2Suffix)
	for _, garbage := range []string{"", "{", `{"schema":"locmps/wire/v999"}`, `{"schema":"locmps/wire/v1","schedule":{"algorithm":"x","cluster":{"p":1,"bandwidth":1},"placements":[],"comm":[]}}`} {
		if err := os.WriteFile(path, []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		// Reopen so the index still lists the key.
		dc2, err := OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := dc2.Get(key, req); ok {
			t.Fatalf("corrupt entry %q served as a hit", garbage)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry %q not deleted", garbage)
		}
		if st := dc2.Stats(); garbage != "" && st.Corrupt != 1 {
			t.Fatalf("corrupt counter %d, want 1", st.Corrupt)
		}
		dc.Put(key, req, s, false) // restore for the next round
	}
}

// TestDiskCacheRejectsTamperedEntry: a well-formed entry whose schedule
// was edited on disk — a task moved to a processor the cluster lacks, or
// the whole schedule relabelled to another cluster — decodes cleanly but
// must not be served. It is deleted and counted as corrupt, like a torn
// file.
func TestDiskCacheRejectsTamperedEntry(t *testing.T) {
	req := l2Request(t, 10, 4)
	key, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New().Schedule(req.Graph, req.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	tamper := map[string]func(*WireResponse){
		"processor outside the cluster": func(wr *WireResponse) { wr.Schedule.Placements[0].Procs[0] = 999 },
		"another cluster":               func(wr *WireResponse) { wr.Schedule.Cluster.P = 2 * req.Cluster.P },
		"start moved before its parent": func(wr *WireResponse) {
			last := len(wr.Schedule.Placements) - 1
			wr.Schedule.Placements[last].Start = -1
		},
	}
	for name, edit := range tamper {
		dir := t.TempDir()
		dc, err := OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		dc.Put(key, req, s, false)
		path := filepath.Join(dir, HexKey(key)+l2Suffix)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var wr WireResponse
		if err := json.Unmarshal(data, &wr); err != nil {
			t.Fatal(err)
		}
		edit(&wr)
		if data, err = json.Marshal(wr); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := dc.Get(key, req); ok {
			t.Errorf("%s: tampered entry served as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: tampered entry not deleted", name)
		}
		if st := dc.Stats(); st.Corrupt != 1 || st.Hits != 0 {
			t.Errorf("%s: stats %+v, want 1 corrupt and no hit", name, st)
		}
	}
}

// FuzzDiskCacheGet stores arbitrary bytes as the L2 file of a real key.
// Get must never panic, and any hit must be a schedule for the request's
// cluster that the audit oracle accepts. The instance is tiny so the seed
// file, and with it input minimization, stays cheap.
func FuzzDiskCacheGet(f *testing.F) {
	req := Request{
		Graph:   testGraph(f, 3, 9),
		Cluster: model.Cluster{P: 2, Bandwidth: 12.5e6, Overlap: true},
	}
	key, err := req.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	s, err := core.New().Schedule(req.Graph, req.Cluster)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	dc, err := OpenDiskCache(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, HexKey(key)+l2Suffix)
	dc.Put(key, req, s, false)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(strings.Replace(string(valid), `"procs":[`, `"procs":[999,`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"p":2`, `"p":3`, 1)))
	f.Add([]byte("{"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dc.Put(key, req, s, false) // (re)index the key
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, ok := dc.Get(key, req)
		if !ok {
			return
		}
		if got.Cluster != req.Cluster {
			t.Fatalf("hit for cluster %+v, request %+v", got.Cluster, req.Cluster)
		}
		if err := audit.Check(req.Graph, got, audit.Options{}).Err(); err != nil {
			t.Fatalf("hit fails the audit: %v", err)
		}
	})
}

// FuzzDiskCacheGetWinner stores arbitrary bytes as the winner record of a
// portfolio key. GetWinner must never panic, and any hit must name an
// engine the registry knows, so a tampered record can at worst cost a
// re-race.
func FuzzDiskCacheGetWinner(f *testing.F) {
	dir := f.TempDir()
	dc, err := OpenDiskCache(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	var key Key
	dc.PutWinner(key, "CPA")
	path := dc.winnerPath(HexKey(key))
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(strings.Replace(string(valid), `"CPA"`, `"NOPE"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"CPA"`, `""`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `winner/v1`, `winner/v0`, 1)))
	f.Add([]byte("{"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if name, ok := dc.GetWinner(key); ok && !sched.Known(name) {
			t.Fatalf("hit names unknown engine %q", name)
		}
	})
}

// TestDiskCacheEviction: the byte bound holds, eviction is LRU, and
// recently touched entries survive.
func TestDiskCacheEviction(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{Workers: 1})
	defer svc.Close()

	reqs := make([]Request, 6)
	keys := make([]Key, 6)
	var entrySize int64
	for i := range reqs {
		reqs[i] = l2Request(t, 10, int64(100+i))
		keys[i], _ = reqs[i].Fingerprint()
	}
	// Size one entry to calibrate the bound.
	probe, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := svc.Schedule(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	probe.Put(keys[0], reqs[0], s0, false)
	entrySize = probe.Stats().Bytes
	if entrySize <= 0 {
		t.Fatal("probe entry has no size")
	}

	// Room for ~3 entries.
	dc, err := OpenDiskCache(dir, 3*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		s, err := svc.Schedule(req)
		if err != nil {
			t.Fatal(err)
		}
		dc.Put(keys[i], req, s, false)
		// Keep the first entry hot so LRU spares it.
		if _, _, ok := dc.Get(keys[0], reqs[0]); i < 1 || !ok {
			if !ok {
				t.Fatalf("after put %d: hot entry 0 evicted despite recent use", i)
			}
		}
	}
	st := dc.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with %d entries over a ~3-entry bound", len(reqs))
	}
	if st.Bytes > 3*entrySize+entrySize/2 {
		t.Fatalf("cache holds %d bytes over the %d bound", st.Bytes, 3*entrySize+entrySize/2)
	}
	if _, _, ok := dc.Get(keys[0], reqs[0]); !ok {
		t.Fatal("most recently used entry was evicted")
	}
	if _, _, ok := dc.Get(keys[1], reqs[1]); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	// No temp droppings.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", f.Name())
		}
	}
}

// TestServiceL2Integration: with an L2 configured, a restarted service
// (fresh L1) serves the previously cold request from disk — no search —
// and the result is bit-identical to the original cold run.
func TestServiceL2Integration(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := l2Request(t, 14, 9)

	svc1 := New(Config{Workers: 1, L2: dc})
	cold, err := svc1.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := svc1.Stats()
	svc1.Close()
	if st1.L2Misses != 1 || st1.L2Writes != 1 || st1.L2Hits != 0 {
		t.Fatalf("first service: L2 hits=%d misses=%d writes=%d, want 0/1/1", st1.L2Hits, st1.L2Misses, st1.L2Writes)
	}

	dc2, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{Workers: 1, L2: dc2})
	defer svc2.Close()
	warm, err := svc2.Schedule(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := svc2.Stats()
	if st2.L2Hits != 1 {
		t.Fatalf("restarted service: L2 hits=%d, want 1 (stats %+v)", st2.L2Hits, st2)
	}
	if st2.L2Writes != 0 {
		t.Fatalf("L2 hit was written back: writes=%d", st2.L2Writes)
	}
	if diff := equalSchedules(cold, warm, req.Graph.M()); diff != "" {
		t.Fatalf("L2-served schedule differs from the cold run: %s", diff)
	}
	// Second request on the restarted service is an L1 hit, not L2.
	if _, err := svc2.Schedule(req); err != nil {
		t.Fatal(err)
	}
	if st := svc2.Stats(); st.CacheHits != 1 || st.L2Hits != 1 {
		t.Fatalf("L1 hits=%d L2 hits=%d after repeat, want 1/1", st.CacheHits, st.L2Hits)
	}
}

// TestServiceL2DeadlineBypass: wall-clock-truncated runs must never enter
// (or be served from) the L2, mirroring the L1 rule.
func TestServiceL2DeadlineBypass(t *testing.T) {
	dc, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := l2Request(t, 14, 11)
	svc := New(Config{Workers: 1, L2: dc})
	defer svc.Close()
	ctx := t.Context()
	if _, err := svc.ScheduleAnytime(ctx, req, core.Budget{Deadline: time.Now().Add(5 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if st := dc.Stats(); st.Puts != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("deadline run touched the L2: %+v", st)
	}
}

// TestDiskCacheConcurrent: hammer one DiskCache from many goroutines under
// the race detector.
func TestDiskCacheConcurrent(t *testing.T) {
	dc, err := OpenDiskCache(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 2})
	defer svc.Close()
	type pair struct {
		req Request
		key Key
	}
	pairs := make([]pair, 4)
	for i := range pairs {
		r := l2Request(t, 8, int64(500+i))
		k, _ := r.Fingerprint()
		pairs[i] = pair{r, k}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := pairs[g%len(pairs)]
			s, err := svc.Schedule(p.req)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				dc.Put(p.key, p.req, s, false)
				if got, _, ok := dc.Get(p.key, p.req); ok {
					if diff := equalSchedules(s, got, p.req.Graph.M()); diff != "" {
						t.Errorf("concurrent round trip diverged: %s", diff)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
