package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"locmps/internal/model"
	"locmps/internal/synth"
)

// sameShardGates returns two gate requests whose fingerprints route to the
// same shard of svc, and the function that opens both gates. It is also a
// cleanup, so a failing test never leaves a worker parked for Close to
// wait on; register svc.Close as a cleanup before calling this.
func sameShardGates(t *testing.T, svc *Service, cluster model.Cluster) ([2]Request, [2]gateProfile, func()) {
	t.Helper()
	first := make(map[*shard]int)
	var reqs []Request
	var profs []gateProfile
	for t1 := 10.0; t1 < 100; t1++ {
		req, prof, k := gateRequest(t, t1, cluster, nil)
		reqs, profs = append(reqs, req), append(profs, prof)
		sh := svc.shardFor(k)
		if i, ok := first[sh]; ok {
			open := sync.OnceFunc(func() {
				close(profs[i].gate)
				close(prof.gate)
			})
			t.Cleanup(open)
			return [2]Request{reqs[i], req}, [2]gateProfile{profs[i], prof}, open
		}
		first[sh] = len(reqs) - 1
	}
	t.Fatal("no two gate requests share a shard")
	panic("unreachable")
}

// sameShardRequests returns n distinct requests whose fingerprints route
// to one shard of svc.
func sameShardRequests(t *testing.T, svc *Service, cluster model.Cluster, n int, seed int64) []Request {
	t.Helper()
	byShard := make(map[*shard][]Request)
	for s := seed; s < seed+200; s++ {
		req := Request{Graph: testGraph(t, 8, s), Cluster: cluster}
		k, err := req.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		sh := svc.shardFor(k)
		if byShard[sh] = append(byShard[sh], req); len(byShard[sh]) == n {
			return byShard[sh]
		}
	}
	t.Fatalf("no %d requests share a shard", n)
	return nil
}

// awaitEntered waits until a gated run is parked inside its worker.
func awaitEntered(t *testing.T, prof gateProfile, what string) {
	t.Helper()
	select {
	case <-prof.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never started running", what)
	}
}

// TestServiceSameShardColdJobsRunConcurrently: workers are not tied to
// shards, so two cold jobs whose keys route to the same shard run at the
// same time on a two-worker service. Each parks inside its run until the
// test opens its gate; with one worker per shard the second would wait in
// the queue behind the first and never enter.
func TestServiceSameShardColdJobsRunConcurrently(t *testing.T) {
	svc := New(Config{Shards: 2, WorkersPerShard: 1, QueueDepth: 4, CacheEntries: 8})
	t.Cleanup(svc.Close)
	reqs, profs, open := sameShardGates(t, svc, testClusterP(4))

	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			if _, err := svc.Schedule(req); err != nil {
				t.Errorf("gated request: %v", err)
			}
		}(reqs[i])
	}
	awaitEntered(t, profs[0], "first same-shard job")
	awaitEntered(t, profs[1], "second same-shard job")
	open()
	wg.Wait()
	if st := svc.Stats(); st.Scheduled != 2 || st.Failed != 0 {
		t.Errorf("Scheduled = %d, Failed = %d, want 2 and 0", st.Scheduled, st.Failed)
	}
}

// TestServiceOverloadAtTotalBound: the job queue holds Shards × QueueDepth
// jobs whatever their shards. With both workers parked, two queued jobs of
// one shard fit a 2-shard, depth-1 service, and the next admission fails
// fast with ErrOverloaded.
func TestServiceOverloadAtTotalBound(t *testing.T) {
	svc := New(Config{Shards: 2, WorkersPerShard: 1, QueueDepth: 1, CacheEntries: 8})
	t.Cleanup(svc.Close)
	cluster := testClusterP(4)
	gates, profs, open := sameShardGates(t, svc, cluster)
	queued := sameShardRequests(t, svc, cluster, 2, 300)

	var wg sync.WaitGroup
	run := func(req Request, what string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Schedule(req); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}()
	}
	for i := range gates {
		run(gates[i], "gated request")
	}
	awaitEntered(t, profs[0], "first gated job")
	awaitEntered(t, profs[1], "second gated job")
	for _, req := range queued {
		run(req, "queued request")
	}
	for deadline := time.Now().Add(10 * time.Second); len(svc.queue) < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d jobs after 10s, want 2", len(svc.queue))
		}
		time.Sleep(time.Millisecond)
	}
	over := Request{Graph: testGraph(t, 8, 299), Cluster: cluster}
	if _, err := svc.Schedule(over); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admission beyond the total bound = %v, want ErrOverloaded", err)
	}
	open()
	wg.Wait()
	if _, err := svc.Schedule(over); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	if st := svc.Stats(); st.Rejected != 1 || st.Scheduled != 5 {
		t.Errorf("Rejected = %d, Scheduled = %d, want 1 and 5", st.Rejected, st.Scheduled)
	}
}

// TestServiceCloseDrainsQueuedLeaders: Close stops admission at once but
// still runs every job already queued, delivering each leader its
// schedule, and a second Close is a no-op.
func TestServiceCloseDrainsQueuedLeaders(t *testing.T) {
	svc := New(Config{Shards: 2, WorkersPerShard: 1, QueueDepth: 4, CacheEntries: 8})
	t.Cleanup(svc.Close)
	cluster := testClusterP(4)
	gates, profs, open := sameShardGates(t, svc, cluster)
	queued := sameShardRequests(t, svc, cluster, 3, 400)

	errs := make(chan error, len(gates)+len(queued))
	run := func(req Request) {
		go func() {
			_, err := svc.Schedule(req)
			errs <- err
		}()
	}
	for _, req := range gates {
		run(req)
	}
	awaitEntered(t, profs[0], "first gated job")
	awaitEntered(t, profs[1], "second gated job")
	for _, req := range queued {
		run(req)
	}
	for deadline := time.Now().Add(10 * time.Second); len(svc.queue) < len(queued); {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d jobs after 10s, want %d", len(svc.queue), len(queued))
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	allClosed := func() bool {
		for _, sh := range svc.shards {
			sh.mu.Lock()
			c := sh.closed
			sh.mu.Unlock()
			if !c {
				return false
			}
		}
		return true
	}
	for !allClosed() {
		time.Sleep(time.Millisecond)
	}
	late := Request{Graph: testGraph(t, 8, 399), Cluster: cluster}
	if _, err := svc.Schedule(late); !errors.Is(err, ErrClosed) {
		t.Errorf("Schedule while closing = %v, want ErrClosed", err)
	}
	open()
	for range len(gates) + len(queued) {
		if err := <-errs; err != nil {
			t.Errorf("leader admitted before Close: %v", err)
		}
	}
	<-closed
	svc.Close() // idempotent
	if st := svc.Stats(); st.Scheduled != uint64(len(gates)+len(queued)) {
		t.Errorf("Scheduled = %d, want %d", st.Scheduled, len(gates)+len(queued))
	}
}

// primeRequests builds the 48 keys a mixed request stream primes: four
// size classes (one LoC-MPS, two M-HEFT, one CPA) over three topologies
// and two CCRs. Fresh graphs each call, as decoded request bodies are.
func primeRequests(b *testing.B) []Request {
	b.Helper()
	classes := []struct {
		tasks, p int
		engine   string
	}{{16, 16, ""}, {32, 32, "M-HEFT"}, {40, 64, "CPA"}, {64, 64, "M-HEFT"}}
	reqs := make([]Request, 48)
	for k := range reqs {
		c := classes[k%len(classes)]
		p := synth.DefaultParams()
		p.Tasks, p.CCR, p.Seed = c.tasks, []float64{0.1, 1}[(k/3)%2], 1_000_033+int64(k)
		var (
			tg  *model.TaskGraph
			err error
		)
		switch k % 3 {
		case 0:
			tg, err = synth.Layered(p, max(2, c.tasks/6))
		case 1:
			tg, err = synth.ForkJoin(p)
		default:
			tg, err = synth.SeriesParallel(p)
		}
		if err != nil {
			b.Fatal(err)
		}
		reqs[k] = Request{
			Graph:   tg,
			Cluster: model.Cluster{P: c.p, Bandwidth: p.Bandwidth, Overlap: true},
			Options: Options{Algorithm: c.engine},
		}
	}
	return reqs
}

// BenchmarkServicePrime times priming a default-sized service with the 48
// keys from two concurrent senders: every request is a cold run, so the
// op is bound by the engines and by how well the workers share the load.
func BenchmarkServicePrime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reqs := primeRequests(b)
		svc := New(Config{})
		b.StartTimer()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(reqs); k += 2 {
					if _, err := svc.Schedule(reqs[k]); err != nil {
						b.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}
