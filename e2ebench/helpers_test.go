package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"locmps/internal/serve"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// A tail percentile is only reported with at least ten samples beyond it.
func TestQuantileTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{99, 0.90, 90, 9, false},
		{100, 0.90, 90, 10, true},
		{150, 0.90, 135, 15, true},
		{999, 0.99, 990, 9, false},
		{1000, 0.99, 990, 10, true},
		{1, 0.5, 1, 0, false},
	}
	for _, c := range cases {
		v, beyond, ok := quantile(seq(c.n), c.q)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("quantile(1..%d, %v) = %v, %d beyond, ok=%v; want %v, %d, %v", c.n, c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if got := samplesFor(0.90); got != 100 {
		t.Errorf("samplesFor(0.90) = %d, want 100", got)
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
	if zipfStepItems < samplesFor(0.99) {
		t.Errorf("zipfStepItems = %d leaves fewer than %d samples beyond a step's p99", zipfStepItems, minBeyond)
	}
	// quantile must not reorder the caller's samples.
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quantile sorted its input: %v", in)
	}
}

// The zipf request stream and its fresh keys are a function of the seed.
func TestZipfStreamDeterministic(t *testing.T) {
	a := zipfStream(7, zipfKeys, 5000, zipfTrickle)
	b := zipfStream(7, zipfKeys, 5000, zipfTrickle)
	c := zipfStream(8, zipfKeys, 5000, zipfTrickle)
	if len(a) != 5000 {
		t.Fatalf("len = %d", len(a))
	}
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same {
		t.Error("same seed, different streams")
	}
	if !differ {
		t.Error("different seeds, same stream")
	}
	// Longer streams extend shorter ones: a run's prefix never depends on
	// how much of the stream the run ends up sending.
	long := zipfStream(7, zipfKeys, 9000, zipfTrickle)
	for i := range a {
		if a[i] != long[i] {
			t.Fatalf("item %d differs between stream lengths", i)
		}
	}
	freq := make([]int, zipfKeys)
	nextFresh := 0
	for i, it := range a {
		switch {
		case it.Fresh >= 0 && !it.Repeat:
			if i%zipfTrickle != 0 || it.Fresh != nextFresh {
				t.Fatalf("item %d: fresh key %d out of place", i, it.Fresh)
			}
			if i+1 < len(a) && (a[i+1].Fresh != it.Fresh || !a[i+1].Repeat) {
				t.Fatalf("item %d: fresh key not followed by its repeat", i)
			}
			nextFresh++
		case it.Fresh >= 0:
			if a[i-1].Fresh != it.Fresh {
				t.Fatalf("item %d: stray repeat", i)
			}
		default:
			if it.Key < 0 || it.Key >= zipfKeys {
				t.Fatalf("item %d: key %d out of range", i, it.Key)
			}
			freq[it.Key]++
		}
	}
	if nextFresh != (5000-1)/zipfTrickle {
		t.Errorf("%d fresh keys in 5000 items, want %d", nextFresh, (5000-1)/zipfTrickle)
	}
	if freq[0] <= freq[1] || freq[1] <= freq[zipfKeys-1] {
		t.Errorf("popularity not Zipf-shaped: rank0=%d rank1=%d last=%d", freq[0], freq[1], freq[zipfKeys-1])
	}

	for f := 0; f < 3; f++ {
		x, err := freshKey(7, f)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := freshKey(7, f)
		if !bytes.Equal(x.Body, y.Body) {
			t.Errorf("fresh key %d not deterministic", f)
		}
	}
}

// Every generated key is distinct: cold requests never repeat, fresh keys
// are never primed keys.
func TestKeysDistinct(t *testing.T) {
	seen := map[serve.Key]string{}
	add := func(what string, r request, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		k, err := r.Req.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s repeats the key of %s", what, prev)
		}
		seen[k] = what
	}
	for i := 0; i < 48; i++ {
		r, err := coldRequest(3, i)
		add("cold request", r, err)
	}
	for k := 0; k < zipfKeys; k++ {
		r, err := zipfKey(3, k)
		add("zipf key", r, err)
	}
	for f := 0; f < 10; f++ {
		r, err := freshKey(3, f)
		add("fresh key", r, err)
	}
}

func TestDueTimes(t *testing.T) {
	items := []item{{Key: 1, Fresh: -1}, {Key: -1, Fresh: 0}, {Key: -1, Fresh: 0, Repeat: true}, {Key: 2, Fresh: -1}}
	start := time.Unix(100, 0)
	due := dueTimes(items, start, 100) // 10 ms gap
	want := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	for i, w := range want {
		if got := due[i].Sub(start); got != w {
			t.Errorf("due[%d] = +%v, want +%v", i, got, w)
		}
	}
	for i, d := range dueTimes(items, start, math.Inf(1)) {
		if !d.Equal(start) {
			t.Errorf("back to back: due[%d] = +%v, want +0", i, d.Sub(start))
		}
	}
}

// A stalled sender makes the following requests late; their latency is
// timed from when they were due, so the stall counts against them.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	due := []time.Time{start, start.Add(time.Millisecond), start.Add(2 * time.Millisecond)}
	samples := runOpenLoop(due, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return i != 2
	})
	if l := samples[0].lateMs(); l > 5 {
		t.Errorf("first request %v ms late with nothing ahead of it", l)
	}
	if l := samples[1].lateMs(); l < 25 {
		t.Errorf("request behind a 30 ms stall only %v ms late", l)
	}
	if lat := samples[1].latencyMs(); lat < samples[1].lateMs() {
		t.Errorf("latency %v ms excludes lateness %v ms", lat, samples[1].lateMs())
	}
	if !math.IsInf(samples[2].latencyMs(), 1) {
		t.Errorf("failed request latency = %v, want +Inf", samples[2].latencyMs())
	}
}

func TestSummarize(t *testing.T) {
	base := time.Unix(0, 0)
	mk := func(n int, late, service func(i int) time.Duration) []sample {
		out := make([]sample, n)
		for i := range out {
			due := base.Add(time.Duration(i) * time.Millisecond)
			sent := due.Add(late(i))
			out[i] = sample{Due: due, Sent: sent, Done: sent.Add(service(i)), OK: true}
		}
		return out
	}
	const ms2 = 2 * time.Millisecond
	zero := func(int) time.Duration { return 0 }
	flat := func(int) time.Duration { return ms2 }

	st := summarize(mk(1000, zero, flat), 100, 25)
	if !st.Pass || st.P99 != 2 || st.Beyond != 10 || st.LateP99 != 0 {
		t.Errorf("steady step: %+v", st)
	}
	st = summarize(mk(999, zero, flat), 100, 25)
	if st.Pass {
		t.Errorf("step with 9 samples beyond its p99 passed: %+v", st)
	}
	// A generator falling 1 ms further behind per request: the p99 still
	// meets a 1 s limit, but the backlog grows by 750 ms between the first
	// and last quarter.
	growing := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	st = summarize(mk(1000, growing, flat), 100, 1000)
	if st.Pass || st.P99 > 1000 || st.BacklogGrowth < 700 {
		t.Errorf("growing backlog passed: %+v", st)
	}
	// Eleven failures put the p99 at +Inf: a failed request misses the limit.
	s := mk(1000, zero, flat)
	for i := 0; i < 11; i++ {
		s[i].OK = false
	}
	st = summarize(s, 100, 25)
	if st.Pass || st.Failed != 11 || !math.IsInf(st.P99, 1) {
		t.Errorf("failing step: %+v", st)
	}
}

func TestSelfTimes(t *testing.T) {
	msAt := func(v int) int64 { return int64(v) * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: msAt(0), End: msAt(10)},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: msAt(1), End: msAt(4)},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: msAt(5), End: msAt(9)},
		{ID: 4, Parent: 3, Req: 1, Name: "c", Start: msAt(6), End: msAt(7)},
		{ID: 5, Req: 2, Name: "root", Start: msAt(20), End: msAt(22)},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"root": {Count: 2, Self: 5 * time.Millisecond, Total: 12 * time.Millisecond},
		"a":    {Count: 1, Self: 3 * time.Millisecond, Total: 3 * time.Millisecond},
		"b":    {Count: 1, Self: 3 * time.Millisecond, Total: 4 * time.Millisecond},
		"c":    {Count: 1, Self: time.Millisecond, Total: time.Millisecond},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	var sum time.Duration
	for _, lt := range got {
		sum += lt.Self
	}
	if sum != 12*time.Millisecond {
		t.Errorf("self times add up to %v, want the roots' 12ms", sum)
	}
}

// The tracer records spans from several goroutines at once.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				_ = tr.timed(0, int64(g), "x", func() error { return nil })
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := len(tr.snapshot()); n != 400 {
		t.Fatalf("%d spans, want 400", n)
	}
	var nilTracer *tracer
	if nilTracer.newID() != 0 {
		t.Error("nil tracer handed out an id")
	}
	nilTracer.add(1, 0, 0, "x", time.Now(), time.Now())
}

// BENCHMARK.json at the repository root declares workloads this program
// runs and exactly the metrics it reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q the program does not run", w.Name)
		}
	}
	if err := sameDecls(b.EndToEnd, endToEnd); err != nil {
		t.Errorf("end_to_end: %v", err)
	}
	if err := sameDecls(b.PerLayer, perLayer); err != nil {
		t.Errorf("per_layer: %v", err)
	}
}

func TestWindowQuantile(t *testing.T) {
	// Three windows of 100: the second holds a stall. The median of the
	// window p90s ignores it; the whole-run p90 does not.
	var s []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 1 && i > 60 {
				v = 1000
			}
			s = append(s, v)
		}
	}
	s = append(s, 5, 5, 5) // a remainder shorter than a window is dropped
	v, windows, ok := windowQuantile(s, 0.90)
	if !ok || windows != 3 || v != 90 {
		t.Errorf("windowQuantile = %v over %d windows (ok=%v), want 90 over 3", v, windows, ok)
	}
	if whole, _, _ := quantile(s, 0.90); whole != 1000 {
		t.Errorf("whole-run p90 = %v, want the stall's 1000", whole)
	}
	if _, _, ok := windowQuantile(seq(99), 0.90); ok {
		t.Error("99 samples made a p90 window")
	}
}

// The heap figure is the median of the block peaks, a discarded warm-up
// peak is left out, and cutAt stops sampling after the last block.
func TestHeapBlocks(t *testing.T) {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() { <-h.stop; h.wg.Done() }() // stands in for the sampler
	h.mu.Lock()
	h.cur = 500 << 20 // the warm-up peak
	h.mu.Unlock()
	h.discard()
	for i, mb := range []float64{10, 30, 20} {
		h.mu.Lock()
		h.cur = uint64(mb * (1 << 20))
		h.mu.Unlock()
		h.cutAt(i+1, 1, 3)
	}
	h.cut() // after the last block: no-op
	if got := h.finish(); got != 20 {
		t.Errorf("finish = %v MiB, want the median block peak 20", got)
	}
	if len(h.blocks) != 3 {
		t.Errorf("%d blocks, want 3", len(h.blocks))
	}
	var none *heapPeak
	none.discard()
	none.cut()
	none.cutAt(1, 1, 1)

	runtime.GC() // the live-heap metric is zero until a first GC completes
	live := startHeapPeak()
	if mb := live.finish(); mb <= 0 {
		t.Errorf("live heap peak %v MiB", mb)
	}
}

func TestCompletionRate(t *testing.T) {
	// Completions every 10 ms, then every 20 ms, then every 10 ms again, in
	// windows of 101: 100, 50 and 100 completions per second. They arrive
	// out of order, as two senders deliver them.
	start := time.Unix(100, 0)
	var done []time.Time
	at := time.Duration(0)
	for _, gap := range []time.Duration{10, 20, 10} {
		for i := 0; i < 101; i++ {
			done = append(done, start.Add(at))
			at += gap * time.Millisecond
		}
		at -= gap * time.Millisecond // windows share no completion
		at += 10 * time.Millisecond
	}
	done[0], done[1] = done[1], done[0]
	if v, windows, ok := completionRate(done, 101); !ok || windows != 3 || math.Abs(v-100) > 1e-6 {
		t.Errorf("completionRate = %v over %d windows (ok=%v), want 100 over 3", v, windows, ok)
	}
	if _, _, ok := completionRate(nil, 10); ok {
		t.Error("no completions made a window")
	}
}

func TestWindowRate(t *testing.T) {
	// Windows of 100 requests at 10 ms, 20 ms and 10 ms: 100, 50 and 100
	// requests per second.
	var lat []float64
	for _, ms := range []float64{10, 20, 10} {
		for i := 0; i < 100; i++ {
			lat = append(lat, ms)
		}
	}
	if v, windows, ok := windowRate(lat, 100); !ok || windows != 3 || math.Abs(v-100) > 1e-9 {
		t.Errorf("windowRate = %v over %d windows (ok=%v), want 100 over 3", v, windows, ok)
	}
}
