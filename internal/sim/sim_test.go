package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"locmps/internal/model"
	"locmps/internal/sched"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
	"locmps/internal/synth"
)

func mustTG(t *testing.T, tasks []model.Task, edges []model.Edge) *model.TaskGraph {
	t.Helper()
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func chain(t *testing.T, vol float64) *model.TaskGraph {
	return mustTG(t,
		[]model.Task{
			{Name: "a", Profile: speedup.Linear{T1: 10}},
			{Name: "b", Profile: speedup.Linear{T1: 10}},
		},
		[]model.Edge{{From: 0, To: 1, Volume: vol}})
}

func TestExecuteMatchesScheduleWithoutComm(t *testing.T) {
	tg := chain(t, 0)
	c := model.Cluster{P: 4, Bandwidth: 1e6, Overlap: true}
	s, err := sched.LoCMPS().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Execute(tg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-s.Makespan) > 1e-9 {
		t.Errorf("sim %v != schedule %v on comm-free graph", r.Makespan, s.Makespan)
	}
	if r.NetworkBytes != 0 || r.Transfers != 0 {
		t.Errorf("phantom traffic: %v bytes, %d transfers", r.NetworkBytes, r.Transfers)
	}
}

func TestExecuteRejectsBadInput(t *testing.T) {
	tg := chain(t, 0)
	c := model.Cluster{P: 2, Bandwidth: 1e6, Overlap: true}
	bad := schedule.NewSchedule("x", c, tg) // unplaced tasks
	if _, err := Execute(tg, bad, Options{}); err == nil {
		t.Error("invalid schedule accepted")
	}
	s, err := sched.LoCMPS().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(tg, s, Options{Policy: Policy{DriftThreshold: 0.05}}); err == nil {
		t.Error("Execute accepted a re-planning policy")
	}
	for _, tc := range badOptions() {
		if _, err := Execute(tg, s, tc.opt); err == nil {
			t.Errorf("Execute accepted %s", tc.name)
		}
	}
}

// badOptions lists option sets that Execute and Run must both reject.
func badOptions() []struct {
	name string
	opt  Options
} {
	nan, inf := math.NaN(), math.Inf(1)
	return []struct {
		name string
		opt  Options
	}{
		{"noise >= 1", Options{Noise: 1.5}},
		{"negative noise", Options{Noise: -0.1}},
		{"NaN noise", Options{Noise: nan}},
		{"out-of-range node", Options{Slowdowns: []Slowdown{{Node: 9, Factor: 2}}}},
		{"zero factor", Options{Slowdowns: []Slowdown{{Node: 0, Factor: 0}}}},
		{"NaN factor", Options{Slowdowns: []Slowdown{{Node: 0, Factor: nan}}}},
		{"infinite factor", Options{Slowdowns: []Slowdown{{Node: 0, Factor: inf}}}},
		{"negative time", Options{Slowdowns: []Slowdown{{Node: 0, Factor: 2, Time: -1}}}},
		{"NaN time", Options{Slowdowns: []Slowdown{{Node: 0, Factor: 2, Time: nan}}}},
		{"negative drift", Options{Policy: Policy{DriftThreshold: -0.1}}},
		{"NaN drift", Options{Policy: Policy{DriftThreshold: nan}}},
		{"negative reschedule bound", Options{Policy: Policy{DriftThreshold: 0.05, MaxReschedules: -1}}},
	}
}

// TestValidation checks that the on-line runtime rejects the same bad
// options as the static replay.
func TestValidation(t *testing.T) {
	tg := chain(t, 0)
	c := model.Cluster{P: 2, Bandwidth: 1e6, Overlap: true}
	for _, tc := range badOptions() {
		if _, _, err := Run(sched.LoCMPS(), tg, c, tc.opt); err == nil {
			t.Errorf("Run accepted %s", tc.name)
		}
	}
}

func TestExecuteChargesCommOnDisjointGroups(t *testing.T) {
	tg := chain(t, 1000)
	c := model.Cluster{P: 2, Bandwidth: 100, Overlap: true}
	s := schedule.NewSchedule("manual", c, tg)
	s.Placements[0] = schedule.Placement{Procs: []int{0}, Start: 0, Finish: 10}
	s.Placements[1] = schedule.Placement{Procs: []int{1}, Start: 20, Finish: 30, DataReady: 20}
	s.ComputeMakespan()
	r, err := Execute(tg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Transfer: 1000 bytes at bw 100 = 10s after a finishes at 10; b runs
	// [20,30).
	if math.Abs(r.Start[1]-20) > 1e-9 || math.Abs(r.Makespan-30) > 1e-9 {
		t.Errorf("start[1]=%v makespan=%v, want 20/30", r.Start[1], r.Makespan)
	}
	if r.NetworkBytes != 1000 {
		t.Errorf("network bytes = %v", r.NetworkBytes)
	}
}

func TestExecuteLocalDataIsFree(t *testing.T) {
	tg := chain(t, 1000)
	c := model.Cluster{P: 2, Bandwidth: 100, Overlap: true}
	s := schedule.NewSchedule("manual", c, tg)
	s.Placements[0] = schedule.Placement{Procs: []int{0}, Start: 0, Finish: 10}
	s.Placements[1] = schedule.Placement{Procs: []int{0}, Start: 10, Finish: 20, DataReady: 10}
	s.ComputeMakespan()
	r, err := Execute(tg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NetworkBytes != 0 || r.LocalBytes != 1000 {
		t.Errorf("network=%v local=%v", r.NetworkBytes, r.LocalBytes)
	}
	if math.Abs(r.Makespan-20) > 1e-9 {
		t.Errorf("makespan = %v, want 20 (no comm delay)", r.Makespan)
	}
}

func TestNoOverlapDelaysCompute(t *testing.T) {
	// Parent on node 0, child on node 1, and an unrelated task queued on
	// node 1: without overlap the transfer occupies node 1 and pushes the
	// unrelated task back.
	tg := mustTG(t,
		[]model.Task{
			{Name: "a", Profile: speedup.Linear{T1: 10}},
			{Name: "b", Profile: speedup.Linear{T1: 10}},
			{Name: "x", Profile: speedup.Linear{T1: 15}},
		},
		[]model.Edge{{From: 0, To: 1, Volume: 1000}})
	mk := func(overlap bool) Result {
		c := model.Cluster{P: 2, Bandwidth: 100, Overlap: overlap}
		s := schedule.NewSchedule("manual", c, tg)
		s.Placements[0] = schedule.Placement{Procs: []int{0}, Start: 0, Finish: 10}
		s.Placements[2] = schedule.Placement{Procs: []int{1}, Start: 0, Finish: 15}
		s.Placements[1] = schedule.Placement{Procs: []int{1}, Start: 25, Finish: 35, DataReady: 25}
		s.ComputeMakespan()
		r, err := Execute(tg, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ov := mk(true)
	nov := mk(false)
	if nov.Makespan <= ov.Makespan {
		t.Errorf("no-overlap (%v) should be slower than overlap (%v)", nov.Makespan, ov.Makespan)
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	tg := chain(t, 0)
	c := model.Cluster{P: 2, Bandwidth: 1e6, Overlap: true}
	s, err := sched.LoCMPS().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Execute(tg, s, Options{Noise: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(tg, s, Options{Noise: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Error("same seed produced different noisy runs")
	}
	r3, err := Execute(tg, s, Options{Noise: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan == r3.Makespan {
		t.Error("different seeds produced identical noise")
	}
}

func randomTG(r *rand.Rand, n int) *model.TaskGraph {
	tasks := make([]model.Task, n)
	for i := range tasks {
		tasks[i] = model.Task{Name: "t", Profile: speedup.Downey{T1: 1 + r.Float64()*30, A: 1 + r.Float64()*16, Sigma: 1}}
	}
	var edges []model.Edge
	for v := 1; v < n; v++ {
		seen := map[int]bool{}
		for k := 0; k < r.Intn(3); k++ {
			u := r.Intn(v)
			if !seen[u] {
				seen[u] = true
				edges = append(edges, model.Edge{From: u, To: v, Volume: r.Float64() * 1e5})
			}
		}
	}
	tg, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		panic(err)
	}
	return tg
}

// Properties of simulated execution on random schedules:
//  1. precedence holds in the simulated times,
//  2. the simulated makespan is never below the schedule's compute-only
//     critical path under its allocation,
//  3. no task starts before time zero.
func TestExecutePropertiesOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tg := randomTG(r, 3+r.Intn(10))
		c := model.Cluster{P: 2 + r.Intn(7), Bandwidth: 1e5, Overlap: seed%2 == 0}
		s, err := sched.LoCMPS().Schedule(tg, c)
		if err != nil {
			return false
		}
		res, err := Execute(tg, s, Options{Noise: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		for _, e := range tg.Edges() {
			if res.Start[e.To] < res.Finish[e.From]-schedule.Eps {
				return false
			}
		}
		for i := range res.Start {
			if res.Start[i] < 0 {
				return false
			}
			if res.Finish[i] < res.Start[i] {
				return false
			}
		}
		return res.Makespan > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunPipeline(t *testing.T) {
	tg := chain(t, 100)
	c := model.Cluster{P: 4, Bandwidth: 1e6, Overlap: true}
	s, r, err := Run(sched.LoCMPS(), tg, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || r.Makespan <= 0 {
		t.Errorf("Run returned s=%v makespan=%v", s, r.Makespan)
	}
}

func TestUtilizationComputed(t *testing.T) {
	tg := chain(t, 0)
	c := model.Cluster{P: 2, Bandwidth: 1e6, Overlap: true}
	s, err := sched.LoCMPS().Schedule(tg, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Execute(tg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Utilization <= 0 || r.Utilization > 1+1e-9 {
		t.Errorf("utilization = %v", r.Utilization)
	}
}

// timesHash digests per-task Start/Finish bit patterns.
func timesHash(start, finish []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range start {
		for _, v := range []float64{start[i], finish[i]} {
			u := math.Float64bits(v)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// fixedPlan is a Scheduler that returns a precomputed plan.
type fixedPlan struct{ s *schedule.Schedule }

func (fixedPlan) Name() string { return "fixed" }

func (f fixedPlan) Schedule(*model.TaskGraph, model.Cluster) (*schedule.Schedule, error) {
	return f.s, nil
}

// TestRunMatchesExecuteStatic is the static differential between the two
// drivers of the execution step: over 240 configurations (synth seeds
// 1-60, P 4/8/16, CCR 0/0.1/1, both overlap modes, noise 0 and 0.3),
// Run without a policy must time every task bit-identically to Execute on
// the same LoC-MPS plan. The digest over every Execute result was recorded before
// the on-line runtime moved into this package, when Run's role was played
// by a separate on-line simulator, and pins Execute's output.
func TestRunMatchesExecuteStatic(t *testing.T) {
	all := fnv.New64a()
	n := 0
	for seed := int64(1); seed <= 60; seed++ {
		p := synth.DefaultParams()
		p.Tasks = 16
		p.CCR = []float64{0, 0.1, 1}[(seed/3)%3]
		p.Seed = seed
		tg, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, overlap := range []bool{false, true} {
			c := model.Cluster{P: []int{4, 8, 16}[seed%3], Bandwidth: p.Bandwidth, Overlap: overlap}
			plan, err := sched.LoCMPS().Schedule(tg, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, noise := range []float64{0, 0.3} {
				opt := Options{Noise: noise, Seed: seed}
				_, rr, err := Run(fixedPlan{plan}, tg, c, opt)
				if err != nil {
					t.Fatal(err)
				}
				er, err := Execute(tg, plan, opt)
				if err != nil {
					t.Fatal(err)
				}
				he := timesHash(er.Start, er.Finish)
				if hr := timesHash(rr.Start, rr.Finish); hr != he || rr.Makespan != er.Makespan {
					t.Errorf("seed %d P %d overlap %v noise %v: Run makespan %v != Execute %v",
						seed, c.P, overlap, noise, rr.Makespan, er.Makespan)
				}
				fmt.Fprintf(all, "%x %v %v %v %d %v\n", he, er.Makespan, er.NetworkBytes, er.LocalBytes, er.Transfers, er.Utilization)
				n++
			}
		}
	}
	if got, want := all.Sum64(), uint64(0xf05bb203f694e58e); n != 240 || got != want {
		t.Errorf("%d runs digest to %#x, want 240 runs and %#x", n, got, want)
	}
}

// TestRunReplanGolden pins re-planning traces byte for byte: makespan,
// reschedule and migration counts and a digest of every task's times for
// each combination of overlap, Reallocate, MaxReschedules 0/2/4, drift
// 0.01/0.05/0.1, noise 0/0.2 and slowdowns before or during the run. The
// table was recorded from the separate on-line simulator this package's
// Run replaced.
func TestRunReplanGolden(t *testing.T) {
	p := synth.DefaultParams()
	p.Tasks = 16
	p.CCR = 0.1
	p.Seed = 7
	tg, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	planned := map[bool]float64{true: 107.91705543110847, false: 121.7046293388709}
	slow := map[string][]Slowdown{
		"before": {{Time: 0, Node: 0, Factor: 4}},
		"mid":    {{Time: 30, Node: 2, Factor: 6}, {Time: 60, Node: 3, Factor: 2}},
	}
	golden := []struct {
		overlap, realloc      bool
		maxRes                int
		drift, noise          float64
		when                  string
		makespan              float64
		reschedules, migrated int
		hash                  uint64
	}{
		{true, false, 0, 0.01, 0, "before", 303.25829015086833, 2, 3, 0x205b1701a4f6975a},
		{true, false, 0, 0.01, 0, "mid", 263.69921650801945, 3, 6, 0x556a764c3cfbcebc},
		{true, false, 0, 0.01, 0.2, "before", 316.27098473919864, 9, 3, 0x62904d4f0e52eb1c},
		{true, false, 0, 0.01, 0.2, "mid", 289.53566195934684, 10, 6, 0x69ada87a95067f00},
		{true, false, 0, 0.05, 0, "before", 303.25829015086833, 1, 3, 0x205b1701a4f6975a},
		{true, false, 0, 0.05, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 0, 0.05, 0.2, "before", 316.27098473919864, 4, 3, 0x62904d4f0e52eb1c},
		{true, false, 0, 0.05, 0.2, "mid", 289.53566195934684, 5, 6, 0x69ada87a95067f00},
		{true, false, 0, 0.1, 0, "before", 303.25829015086833, 1, 3, 0x205b1701a4f6975a},
		{true, false, 0, 0.1, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 0, 0.1, 0.2, "before", 316.27098473919864, 2, 3, 0x62904d4f0e52eb1c},
		{true, false, 0, 0.1, 0.2, "mid", 289.53566195934684, 2, 6, 0x69ada87a95067f00},
		{true, false, 2, 0.01, 0, "before", 303.25829015086833, 2, 3, 0x205b1701a4f6975a},
		{true, false, 2, 0.01, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 2, 0.01, 0.2, "before", 316.27098473919864, 2, 3, 0x62904d4f0e52eb1c},
		{true, false, 2, 0.01, 0.2, "mid", 337.75964848967385, 2, 3, 0x60af12a2312b71dd},
		{true, false, 2, 0.05, 0, "before", 303.25829015086833, 1, 3, 0x205b1701a4f6975a},
		{true, false, 2, 0.05, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 2, 0.05, 0.2, "before", 316.27098473919864, 2, 3, 0x62904d4f0e52eb1c},
		{true, false, 2, 0.05, 0.2, "mid", 289.53566195934684, 2, 6, 0x69ada87a95067f00},
		{true, false, 2, 0.1, 0, "before", 303.25829015086833, 1, 3, 0x205b1701a4f6975a},
		{true, false, 2, 0.1, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 2, 0.1, 0.2, "before", 316.27098473919864, 2, 3, 0x62904d4f0e52eb1c},
		{true, false, 2, 0.1, 0.2, "mid", 289.53566195934684, 2, 6, 0x69ada87a95067f00},
		{true, false, 4, 0.01, 0, "before", 303.25829015086833, 2, 3, 0x205b1701a4f6975a},
		{true, false, 4, 0.01, 0, "mid", 263.69921650801945, 3, 6, 0x556a764c3cfbcebc},
		{true, false, 4, 0.01, 0.2, "before", 316.27098473919864, 4, 3, 0x62904d4f0e52eb1c},
		{true, false, 4, 0.01, 0.2, "mid", 289.53566195934684, 4, 6, 0x69ada87a95067f00},
		{true, false, 4, 0.05, 0, "before", 303.25829015086833, 1, 3, 0x205b1701a4f6975a},
		{true, false, 4, 0.05, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 4, 0.05, 0.2, "before", 316.27098473919864, 4, 3, 0x62904d4f0e52eb1c},
		{true, false, 4, 0.05, 0.2, "mid", 289.53566195934684, 4, 6, 0x69ada87a95067f00},
		{true, false, 4, 0.1, 0, "before", 303.25829015086833, 1, 3, 0x205b1701a4f6975a},
		{true, false, 4, 0.1, 0, "mid", 263.69921650801945, 2, 6, 0x556a764c3cfbcebc},
		{true, false, 4, 0.1, 0.2, "before", 316.27098473919864, 2, 3, 0x62904d4f0e52eb1c},
		{true, false, 4, 0.1, 0.2, "mid", 289.53566195934684, 2, 6, 0x69ada87a95067f00},
		{true, true, 0, 0.01, 0, "before", 127.42916024451092, 5, 22, 0x9bc39307c5a9bab9},
		{true, true, 0, 0.01, 0, "mid", 140.93026765185382, 6, 13, 0x3725e9af2c50650e},
		{true, true, 0, 0.01, 0.2, "before", 135.16345291809395, 6, 24, 0x96c53bb87a7b6c6},
		{true, true, 0, 0.01, 0.2, "mid", 158.58120616672608, 12, 16, 0xb80cd4a3d7eb635b},
		{true, true, 0, 0.05, 0, "before", 145.54822114442365, 4, 21, 0x348cdd500f2f1276},
		{true, true, 0, 0.05, 0, "mid", 140.93026765185382, 3, 13, 0x3725e9af2c50650e},
		{true, true, 0, 0.05, 0.2, "before", 132.97273987376, 3, 21, 0x9e58a0cd149c5c61},
		{true, true, 0, 0.05, 0.2, "mid", 158.58120616672608, 7, 16, 0xb80cd4a3d7eb635b},
		{true, true, 0, 0.1, 0, "before", 149.29416792953126, 4, 20, 0xa3026885265b2609},
		{true, true, 0, 0.1, 0, "mid", 136.03971688975207, 2, 12, 0xff3f5bb140898068},
		{true, true, 0, 0.1, 0.2, "before", 152.435833460425, 4, 21, 0x4a3e2fec3de22dcd},
		{true, true, 0, 0.1, 0.2, "mid", 158.58120616672608, 4, 16, 0xb80cd4a3d7eb635b},
		{true, true, 2, 0.01, 0, "before", 127.42916024451092, 2, 22, 0x9bc39307c5a9bab9},
		{true, true, 2, 0.01, 0, "mid", 140.93026765185382, 2, 13, 0x3725e9af2c50650e},
		{true, true, 2, 0.01, 0.2, "before", 137.0656907932571, 2, 24, 0x7c63ac5fb173c97e},
		{true, true, 2, 0.01, 0.2, "mid", 219.53244437400116, 2, 11, 0x9bcb87beae81aa4c},
		{true, true, 2, 0.05, 0, "before", 147.74940860338316, 2, 19, 0x6d18056a0172428b},
		{true, true, 2, 0.05, 0, "mid", 140.93026765185382, 2, 13, 0x3725e9af2c50650e},
		{true, true, 2, 0.05, 0.2, "before", 132.97273987376, 2, 21, 0x9e58a0cd149c5c61},
		{true, true, 2, 0.05, 0.2, "mid", 219.53244437400116, 2, 11, 0x9bcb87beae81aa4c},
		{true, true, 2, 0.1, 0, "before", 147.74940860338316, 2, 19, 0x6d18056a0172428b},
		{true, true, 2, 0.1, 0, "mid", 136.03971688975207, 2, 12, 0xff3f5bb140898068},
		{true, true, 2, 0.1, 0.2, "before", 154.6370209193845, 2, 19, 0x7ad812b01aee7993},
		{true, true, 2, 0.1, 0.2, "mid", 219.53244437400116, 2, 11, 0x9bcb87beae81aa4c},
		{true, true, 4, 0.01, 0, "before", 127.42916024451092, 4, 22, 0x9bc39307c5a9bab9},
		{true, true, 4, 0.01, 0, "mid", 140.93026765185382, 4, 13, 0x3725e9af2c50650e},
		{true, true, 4, 0.01, 0.2, "before", 135.16345291809395, 4, 24, 0x96c53bb87a7b6c6},
		{true, true, 4, 0.01, 0.2, "mid", 219.53244437400116, 4, 11, 0x9bcb87beae81aa4c},
		{true, true, 4, 0.05, 0, "before", 145.54822114442365, 4, 21, 0x348cdd500f2f1276},
		{true, true, 4, 0.05, 0, "mid", 140.93026765185382, 3, 13, 0x3725e9af2c50650e},
		{true, true, 4, 0.05, 0.2, "before", 132.97273987376, 3, 21, 0x9e58a0cd149c5c61},
		{true, true, 4, 0.05, 0.2, "mid", 158.58120616672608, 4, 16, 0xb80cd4a3d7eb635b},
		{true, true, 4, 0.1, 0, "before", 149.29416792953126, 4, 20, 0xa3026885265b2609},
		{true, true, 4, 0.1, 0, "mid", 136.03971688975207, 2, 12, 0xff3f5bb140898068},
		{true, true, 4, 0.1, 0.2, "before", 152.435833460425, 4, 21, 0x4a3e2fec3de22dcd},
		{true, true, 4, 0.1, 0.2, "mid", 158.58120616672608, 4, 16, 0xb80cd4a3d7eb635b},
		{false, false, 0, 0.01, 0, "before", 362.95885452548373, 3, 5, 0x2c74e907f9e91d67},
		{false, false, 0, 0.01, 0, "mid", 332.5071704756416, 4, 7, 0x3ad3ffd3d339d87a},
		{false, false, 0, 0.01, 0.2, "before", 378.6943856789209, 9, 5, 0x431fffee9c55c0d5},
		{false, false, 0, 0.01, 0.2, "mid", 331.0609967257037, 9, 7, 0x546e401759572d7c},
		{false, false, 0, 0.05, 0, "before", 362.95885452548373, 3, 5, 0x2c74e907f9e91d67},
		{false, false, 0, 0.05, 0, "mid", 332.5071704756416, 4, 7, 0x3ad3ffd3d339d87a},
		{false, false, 0, 0.05, 0.2, "before", 378.6943856789209, 4, 5, 0x431fffee9c55c0d5},
		{false, false, 0, 0.05, 0.2, "mid", 331.0609967257037, 5, 7, 0x546e401759572d7c},
		{false, false, 0, 0.1, 0, "before", 362.95885452548373, 3, 5, 0x2c74e907f9e91d67},
		{false, false, 0, 0.1, 0, "mid", 376.1137147802586, 3, 4, 0x23d405d7db2edf61},
		{false, false, 0, 0.1, 0.2, "before", 378.6943856789209, 3, 5, 0x431fffee9c55c0d5},
		{false, false, 0, 0.1, 0.2, "mid", 331.0609967257037, 4, 7, 0x546e401759572d7c},
		{false, false, 2, 0.01, 0, "before", 362.95885452548373, 2, 5, 0x2c74e907f9e91d67},
		{false, false, 2, 0.01, 0, "mid", 332.5071704756416, 2, 7, 0x3ad3ffd3d339d87a},
		{false, false, 2, 0.01, 0.2, "before", 378.6943856789209, 2, 5, 0x431fffee9c55c0d5},
		{false, false, 2, 0.01, 0.2, "mid", 379.767211203353, 2, 4, 0x8c4ee6d1434d0e0e},
		{false, false, 2, 0.05, 0, "before", 362.95885452548373, 2, 5, 0x2c74e907f9e91d67},
		{false, false, 2, 0.05, 0, "mid", 332.5071704756416, 2, 7, 0x3ad3ffd3d339d87a},
		{false, false, 2, 0.05, 0.2, "before", 378.6943856789209, 2, 5, 0x431fffee9c55c0d5},
		{false, false, 2, 0.05, 0.2, "mid", 331.0609967257037, 2, 7, 0x546e401759572d7c},
		{false, false, 2, 0.1, 0, "before", 362.95885452548373, 2, 5, 0x2c74e907f9e91d67},
		{false, false, 2, 0.1, 0, "mid", 376.1137147802586, 2, 4, 0x23d405d7db2edf61},
		{false, false, 2, 0.1, 0.2, "before", 378.6943856789209, 2, 5, 0x431fffee9c55c0d5},
		{false, false, 2, 0.1, 0.2, "mid", 331.0609967257037, 2, 7, 0x546e401759572d7c},
		{false, false, 4, 0.01, 0, "before", 362.95885452548373, 3, 5, 0x2c74e907f9e91d67},
		{false, false, 4, 0.01, 0, "mid", 332.5071704756416, 4, 7, 0x3ad3ffd3d339d87a},
		{false, false, 4, 0.01, 0.2, "before", 378.6943856789209, 4, 5, 0x431fffee9c55c0d5},
		{false, false, 4, 0.01, 0.2, "mid", 331.0609967257037, 4, 7, 0x546e401759572d7c},
		{false, false, 4, 0.05, 0, "before", 362.95885452548373, 3, 5, 0x2c74e907f9e91d67},
		{false, false, 4, 0.05, 0, "mid", 332.5071704756416, 4, 7, 0x3ad3ffd3d339d87a},
		{false, false, 4, 0.05, 0.2, "before", 378.6943856789209, 4, 5, 0x431fffee9c55c0d5},
		{false, false, 4, 0.05, 0.2, "mid", 331.0609967257037, 4, 7, 0x546e401759572d7c},
		{false, false, 4, 0.1, 0, "before", 362.95885452548373, 3, 5, 0x2c74e907f9e91d67},
		{false, false, 4, 0.1, 0, "mid", 376.1137147802586, 3, 4, 0x23d405d7db2edf61},
		{false, false, 4, 0.1, 0.2, "before", 378.6943856789209, 3, 5, 0x431fffee9c55c0d5},
		{false, false, 4, 0.1, 0.2, "mid", 331.0609967257037, 4, 7, 0x546e401759572d7c},
		{false, true, 0, 0.01, 0, "before", 256.8540526227659, 7, 30, 0x2f38264c1c14918b},
		{false, true, 0, 0.01, 0, "mid", 244.06748929917748, 6, 18, 0xf2018ca0e8b13941},
		{false, true, 0, 0.01, 0.2, "before", 265.84488988001146, 9, 39, 0x78145c35254e2276},
		{false, true, 0, 0.01, 0.2, "mid", 262.19244055249914, 9, 18, 0x6e5bd035976a73f3},
		{false, true, 0, 0.05, 0, "before", 256.8540526227659, 6, 30, 0x2f38264c1c14918b},
		{false, true, 0, 0.05, 0, "mid", 244.06748929917748, 5, 18, 0xf2018ca0e8b13941},
		{false, true, 0, 0.05, 0.2, "before", 265.84488988001146, 6, 30, 0x78145c35254e2276},
		{false, true, 0, 0.05, 0.2, "mid", 262.19244055249914, 6, 18, 0x6e5bd035976a73f3},
		{false, true, 0, 0.1, 0, "before", 256.8540526227659, 6, 30, 0x2f38264c1c14918b},
		{false, true, 0, 0.1, 0, "mid", 244.06748929917748, 5, 18, 0xf2018ca0e8b13941},
		{false, true, 0, 0.1, 0.2, "before", 265.84488988001146, 6, 30, 0x78145c35254e2276},
		{false, true, 0, 0.1, 0.2, "mid", 262.19244055249914, 5, 18, 0x6e5bd035976a73f3},
		{false, true, 2, 0.01, 0, "before", 258.30030511566747, 2, 22, 0x853ef89e7f147a28},
		{false, true, 2, 0.01, 0, "mid", 284.06960614930944, 2, 10, 0xaf050e6d6f35105b},
		{false, true, 2, 0.01, 0.2, "before", 273.59613295945036, 2, 24, 0xb7f5388948d6efc8},
		{false, true, 2, 0.01, 0.2, "mid", 301.3007769387035, 2, 11, 0x8c47eafeaf7d3b3e},
		{false, true, 2, 0.05, 0, "before", 258.30030511566747, 2, 22, 0x853ef89e7f147a28},
		{false, true, 2, 0.05, 0, "mid", 238.8717960205596, 2, 15, 0xbf8bcf17c9e8c4ee},
		{false, true, 2, 0.05, 0.2, "before", 266.766920093218, 2, 22, 0xdd2525f4cd303df0},
		{false, true, 2, 0.05, 0.2, "mid", 301.3007769387035, 2, 11, 0x8c47eafeaf7d3b3e},
		{false, true, 2, 0.1, 0, "before", 258.30030511566747, 2, 22, 0x853ef89e7f147a28},
		{false, true, 2, 0.1, 0, "mid", 238.8717960205596, 2, 15, 0xbf8bcf17c9e8c4ee},
		{false, true, 2, 0.1, 0.2, "before", 266.766920093218, 2, 22, 0xdd2525f4cd303df0},
		{false, true, 2, 0.1, 0.2, "mid", 255.77167642841184, 2, 15, 0x42931dcd70d2ec00},
		{false, true, 4, 0.01, 0, "before", 253.01892672171402, 4, 28, 0xa84a07c4370cf2a6},
		{false, true, 4, 0.01, 0, "mid", 238.8717960205596, 4, 15, 0xbf8bcf17c9e8c4ee},
		{false, true, 4, 0.01, 0.2, "before", 261.8463038979904, 4, 37, 0x94a301622047f117},
		{false, true, 4, 0.01, 0.2, "mid", 301.3007769387035, 4, 11, 0x8c47eafeaf7d3b3e},
		{false, true, 4, 0.05, 0, "before", 253.01892672171402, 4, 28, 0xa84a07c4370cf2a6},
		{false, true, 4, 0.05, 0, "mid", 246.90124561912546, 4, 17, 0xca9ed2dc3a798e9a},
		{false, true, 4, 0.05, 0.2, "before", 261.8463038979904, 4, 28, 0x94a301622047f117},
		{false, true, 4, 0.05, 0.2, "mid", 255.77167642841184, 4, 15, 0x42931dcd70d2ec00},
		{false, true, 4, 0.1, 0, "before", 253.01892672171402, 4, 28, 0xa84a07c4370cf2a6},
		{false, true, 4, 0.1, 0, "mid", 246.90124561912546, 4, 17, 0xca9ed2dc3a798e9a},
		{false, true, 4, 0.1, 0.2, "before", 261.8463038979904, 4, 28, 0x94a301622047f117},
		{false, true, 4, 0.1, 0.2, "mid", 265.45476736338304, 4, 17, 0x3bc483c3abd38a1f},
	}
	plans := map[bool]*schedule.Schedule{}
	for _, overlap := range []bool{false, true} {
		if plans[overlap], err = sched.LoCMPS().Schedule(tg, model.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: overlap}); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range golden {
		c := model.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: g.overlap}
		_, r, err := Run(fixedPlan{plans[g.overlap]}, tg, c, Options{
			Noise: g.noise, Seed: 3, Slowdowns: slow[g.when],
			Policy: Policy{DriftThreshold: g.drift, MaxReschedules: g.maxRes, Reallocate: g.realloc},
		})
		if err != nil {
			t.Fatal(err)
		}
		if h := timesHash(r.Start, r.Finish); r.PlannedMakespan != planned[g.overlap] || r.Makespan != g.makespan ||
			r.Reschedules != g.reschedules || r.Migrated != g.migrated || h != g.hash {
			t.Errorf("%+v: got planned %v makespan %v reschedules %d migrated %d hash %#x",
				g, r.PlannedMakespan, r.Makespan, r.Reschedules, r.Migrated, h)
		}
	}
}

// wideGraph: many independent scalable tasks — plenty of placement freedom
// for the rescheduler to exploit.
func wideGraph(t *testing.T, n int) *model.TaskGraph {
	t.Helper()
	tasks := make([]model.Task, n)
	for i := range tasks {
		tasks[i] = model.Task{Name: "w", Profile: speedup.Linear{T1: 10}}
	}
	return mustTG(t, tasks, nil)
}

var cl = model.Cluster{P: 4, Bandwidth: 1e6, Overlap: true}

// runOnline plans with LoC-MPS and executes under opt.
func runOnline(t *testing.T, tg *model.TaskGraph, c model.Cluster, opt Options) Result {
	t.Helper()
	_, r, err := Run(sched.LoCMPS(), tg, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStaticRunMatchesPlanWithoutDisturbance(t *testing.T) {
	tg := wideGraph(t, 8)
	tr := runOnline(t, tg, cl, Options{})
	if tr.Reschedules != 0 {
		t.Errorf("rescheduled %d times with no policy", tr.Reschedules)
	}
	if tr.Makespan != tr.PlannedMakespan {
		t.Errorf("makespan %v != planned %v on an undisturbed run", tr.Makespan, tr.PlannedMakespan)
	}
}

func TestSlowdownDelaysExecution(t *testing.T) {
	tg := wideGraph(t, 8)
	base := runOnline(t, tg, cl, Options{})
	opt := Options{Slowdowns: []Slowdown{{Time: 0, Node: 0, Factor: 4}}}
	plan, slow, err := Run(sched.LoCMPS(), tg, cl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= base.Makespan {
		t.Errorf("slowdown did not hurt: %v vs %v", slow.Makespan, base.Makespan)
	}
	// Execute honours slowdowns statically, exactly as Run does without a
	// policy.
	replay, err := Execute(tg, plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	if timesHash(replay.Start, replay.Finish) != timesHash(slow.Start, slow.Finish) {
		t.Errorf("Execute makespan %v, Run %v under the same slowdown", replay.Makespan, slow.Makespan)
	}
}

func TestReschedulingMitigatesSlowdown(t *testing.T) {
	// 12 independent *unscalable* 10s tasks on P=4 (width stays 1, so
	// pure re-placement suffices): static plan packs 3 rounds. Node 0
	// drops to 1/8 speed immediately; without replanning every task that
	// was planned on node 0 takes 80s. With replanning, later tasks avoid
	// node 0.
	serial, err := speedup.NewTable([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]model.Task, 12)
	for i := range tasks {
		tasks[i] = model.Task{Name: "u", Profile: serial}
	}
	tg := mustTG(t, tasks, nil)
	ev := []Slowdown{{Time: 0.1, Node: 0, Factor: 8}}

	static := runOnline(t, tg, cl, Options{Slowdowns: ev})
	adaptive := runOnline(t, tg, cl, Options{
		Slowdowns: ev,
		Policy:    Policy{DriftThreshold: 0.05},
	})
	if adaptive.Reschedules == 0 {
		t.Fatal("adaptive run never rescheduled")
	}
	if adaptive.Makespan >= static.Makespan {
		t.Errorf("rescheduling did not help: adaptive %v vs static %v (reschedules %d, migrated %d)",
			adaptive.Makespan, static.Makespan, adaptive.Reschedules, adaptive.Migrated)
	}
}

func TestReallocateShrinksOffSlowNode(t *testing.T) {
	// Scalable tasks get wide allocations that span every node, so pure
	// re-placement cannot dodge a degraded node — only re-allocation can.
	tasks := make([]model.Task, 6)
	for i := range tasks {
		tasks[i] = model.Task{Name: "w", Profile: speedup.Linear{T1: 40}}
	}
	tg := mustTG(t, tasks, nil)
	ev := []Slowdown{{Time: 0.1, Node: 0, Factor: 8}}

	placeOnly := runOnline(t, tg, cl, Options{
		Slowdowns: ev,
		Policy:    Policy{DriftThreshold: 0.05},
	})
	realloc := runOnline(t, tg, cl, Options{
		Slowdowns: ev,
		Policy:    Policy{DriftThreshold: 0.05, Reallocate: true},
	})
	if realloc.Reschedules == 0 {
		t.Fatal("reallocating run never rescheduled")
	}
	if realloc.Makespan >= placeOnly.Makespan {
		t.Errorf("reallocation (%v) not better than re-placement (%v)",
			realloc.Makespan, placeOnly.Makespan)
	}
}

func TestMaxReschedulesBound(t *testing.T) {
	tg := wideGraph(t, 12)
	tr := runOnline(t, tg, cl, Options{
		Slowdowns: []Slowdown{{Time: 0.1, Node: 0, Factor: 8}},
		Policy:    Policy{DriftThreshold: 0.01, MaxReschedules: 2},
	})
	if tr.Reschedules > 2 {
		t.Errorf("reschedules %d exceed bound", tr.Reschedules)
	}
}

// Property: on random DAGs with noise, slowdowns and rescheduling, the
// trace always respects precedence and monotone task intervals.
func TestOnlineInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		tasks := make([]model.Task, n)
		for i := range tasks {
			tasks[i] = model.Task{Name: "t", Profile: speedup.Downey{T1: 5 + r.Float64()*20, A: 1 + r.Float64()*8, Sigma: 1}}
		}
		var edges []model.Edge
		for v := 1; v < n; v++ {
			if r.Intn(2) == 0 {
				edges = append(edges, model.Edge{From: r.Intn(v), To: v, Volume: r.Float64() * 1e5})
			}
		}
		tg, err := model.NewTaskGraph(tasks, edges)
		if err != nil {
			return false
		}
		c := model.Cluster{P: 2 + r.Intn(5), Bandwidth: 1e6, Overlap: seed%2 == 0}
		_, tr, err := Run(sched.LoCMPS(), tg, c, Options{
			Noise: 0.2, Seed: seed,
			Slowdowns: []Slowdown{{Time: r.Float64() * 10, Node: r.Intn(c.P), Factor: 1 + r.Float64()*4}},
			Policy:    Policy{DriftThreshold: 0.1, MaxReschedules: 5},
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, e := range tg.Edges() {
			if tr.Start[e.To] < tr.Finish[e.From]-schedule.Eps {
				return false
			}
		}
		for i := range tr.Start {
			if tr.Start[i] < 0 || tr.Finish[i] < tr.Start[i] {
				return false
			}
		}
		return tr.Makespan > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRescheduleReusesModelTables: the re-planning path must serve every
// round from the graph's cached model tables (built once) and, in
// Reallocate mode, from one scheduler instance — not rebuild them per step.
// Pointer identity of the Tables across a Run with reschedules is the
// regression assertion.
func TestRescheduleReusesModelTables(t *testing.T) {
	for _, realloc := range []bool{false, true} {
		tasks := make([]model.Task, 6)
		for i := range tasks {
			tasks[i] = model.Task{Name: "w", Profile: speedup.Linear{T1: 40}}
		}
		tg := mustTG(t, tasks, nil)
		tb := tg.Tables(cl.P) // built before the run; must survive it
		tr := runOnline(t, tg, cl, Options{
			Slowdowns: []Slowdown{{Time: 0.1, Node: 0, Factor: 8}},
			Policy:    Policy{DriftThreshold: 0.05, Reallocate: realloc},
		})
		if tr.Reschedules == 0 {
			t.Fatalf("reallocate=%v: run never rescheduled", realloc)
		}
		if got := tg.Tables(cl.P); got != tb {
			t.Errorf("reallocate=%v: model tables were rebuilt across %d reschedules",
				realloc, tr.Reschedules)
		}
	}
}
