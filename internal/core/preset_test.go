package core

import (
	"context"
	"math"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
	"locmps/internal/synth"
)

func presetFixture(t *testing.T) *model.TaskGraph {
	t.Helper()
	return mustTG(t,
		[]model.Task{
			tableTask(t, "done", 10),
			tableTask(t, "next", 10, 10),
			tableTask(t, "free", 10),
		},
		[]model.Edge{{From: 0, To: 1, Volume: 1000}})
}

var presetCluster = model.Cluster{P: 4, Bandwidth: 1e6, Overlap: true}

func TestLoCBSWithPresetValidation(t *testing.T) {
	tg := presetFixture(t)
	np := []int{1, 2, 1}
	cases := []Preset{
		{BusyUntil: []float64{1, 2}},                                         // wrong length
		{NodeFactor: []float64{1, 1, 1}},                                     // wrong length
		{NodeFactor: []float64{1, 0, 1, 1}},                                  // non-positive factor
		{NodeFactor: []float64{math.NaN(), 1, 1, 1}},                         // NaN factor
		{NodeFactor: []float64{math.Inf(1), 1, 1, 1}},                        // infinite factor
		{Fixed: map[int]schedule.Placement{7: {Procs: []int{0}}}},            // task out of range
		{Fixed: map[int]schedule.Placement{0: {}}},                           // no processors
		{Fixed: map[int]schedule.Placement{0: {Procs: []int{9}, Finish: 1}}}, // proc out of range
	}
	for i, preset := range cases {
		if _, err := LoCBSWithPreset(tg, presetCluster, np, DefaultConfig(), preset); err == nil {
			t.Errorf("case %d: invalid preset accepted: %+v", i, preset)
		}
	}
}

func TestLoCBSWithPresetKeepsFixedTasks(t *testing.T) {
	tg := presetFixture(t)
	fixed := schedule.Placement{Procs: []int{2}, Start: 0, Finish: 12, DataReady: 0}
	s, err := LoCBSWithPreset(tg, presetCluster, []int{1, 1, 1}, DefaultConfig(), Preset{
		Fixed: map[int]schedule.Placement{0: fixed},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Placements[0]
	if got.Start != 0 || got.Finish != 12 || got.Procs[0] != 2 {
		t.Errorf("fixed placement rewritten: %+v", got)
	}
	// Child must wait for the fixed parent and, with locality, prefers its
	// processor.
	child := s.Placements[1]
	if child.Start < 12-schedule.Eps {
		t.Errorf("child started at %v before fixed parent finished", child.Start)
	}
	if child.Procs[0] != 2 {
		t.Errorf("child ignored parent locality: %v", child.Procs)
	}
	// The independent task backfills before the frontier on another proc.
	free := s.Placements[2]
	if free.Start != 0 {
		t.Errorf("independent task delayed to %v", free.Start)
	}
}

func TestLoCBSWithPresetBusyUntil(t *testing.T) {
	tg := mustTG(t, []model.Task{tableTask(t, "only", 10)}, nil)
	s, err := LoCBSWithPreset(tg, presetCluster, []int{1}, DefaultConfig(), Preset{
		BusyUntil: []float64{100, 100, 100, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Placements[0]
	if pl.Start != 5 || pl.Procs[0] != 3 {
		t.Errorf("placement = %+v, want start 5 on proc 3", pl)
	}
}

func TestLoCBSWithPresetNodeFactorAvoidsSlowNode(t *testing.T) {
	tg := mustTG(t, []model.Task{tableTask(t, "t", 10)}, nil)
	s, err := LoCBSWithPreset(tg, presetCluster, []int{1}, DefaultConfig(), Preset{
		NodeFactor: []float64{8, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Placements[0]
	if pl.Procs[0] == 0 {
		t.Error("task placed on the slow node")
	}
	if math.Abs(pl.Finish-pl.Start-10) > 1e-9 {
		t.Errorf("duration = %v, want 10 at nominal speed", pl.Finish-pl.Start)
	}
}

func TestLoCBSWithPresetNodeFactorStretchesDuration(t *testing.T) {
	// Only one processor: the task must run on it, 3x slower.
	tg := mustTG(t, []model.Task{tableTask(t, "t", 10)}, nil)
	c := model.Cluster{P: 1, Bandwidth: 1e6, Overlap: true}
	s, err := LoCBSWithPreset(tg, c, []int{1}, DefaultConfig(), Preset{
		NodeFactor: []float64{3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Placements[0].Finish - s.Placements[0].Start; math.Abs(d-30) > 1e-9 {
		t.Errorf("duration = %v, want 30", d)
	}
}

func TestScheduleWithPresetReallocatesRemaining(t *testing.T) {
	// Two scalable independent tasks; one already ran on procs {0,1}.
	// The full loop should widen the remaining task over what's left.
	tg := mustTG(t,
		[]model.Task{
			{Name: "ran", Profile: speedup.Linear{T1: 40}},
			{Name: "todo", Profile: speedup.Linear{T1: 40}},
		}, nil)
	fixed := schedule.Placement{Procs: []int{0, 1}, Start: 0, Finish: 55, DataReady: 0}
	alg := New()
	s, err := alg.ScheduleWithPreset(tg, presetCluster, Preset{
		Fixed:     map[int]schedule.Placement{0: fixed},
		BusyUntil: []float64{55, 55, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	todo := s.Placements[1]
	if todo.NP() != 2 || todo.Procs[0] != 2 || todo.Procs[1] != 3 {
		t.Errorf("todo placement = %+v, want widened onto free procs {2,3}", todo)
	}
	if todo.Start != 0 {
		t.Errorf("todo should start immediately, got %v", todo.Start)
	}
	// Fixed task width must never change.
	if s.Placements[0].NP() != 2 || s.Placements[0].Finish != 55 {
		t.Errorf("fixed task modified: %+v", s.Placements[0])
	}
}

// TestPresetFinishedFixedTaskKeepsBusyFrontier: a fixed task that already
// finished lies inside its processors' busy span [0, BusyUntil). It must
// not pull their frontier back into the past: no newly placed task may
// start before BusyUntil on any of its processors, with or without
// backfill, for one LoCBS run and for the full search.
func TestPresetFinishedFixedTaskKeepsBusyFrontier(t *testing.T) {
	tg := mustTG(t,
		[]model.Task{
			tableTask(t, "done", 5),
			tableTask(t, "running", 30),
			tableTask(t, "child", 10, 6),
			tableTask(t, "free", 10, 6),
		},
		[]model.Edge{{From: 0, To: 2, Volume: 1000}})
	c := model.Cluster{P: 2, Bandwidth: 1e6, Overlap: true}
	busy := []float64{20, 20}
	preset := Preset{
		Fixed: map[int]schedule.Placement{
			0: {Procs: []int{0}, Start: 0, Finish: 5},
			1: {Procs: []int{1}, Start: 2, Finish: 32},
		},
		BusyUntil: busy,
	}
	check := func(name string, s *schedule.Schedule) {
		t.Helper()
		for task, pl := range s.Placements {
			if _, fixed := preset.Fixed[task]; fixed {
				continue
			}
			for _, proc := range pl.Procs {
				if pl.Start < busy[proc]-schedule.Eps {
					t.Errorf("%s: task %d starts at %v on proc %d, busy until %v", name, task, pl.Start, proc, busy[proc])
				}
			}
		}
	}
	for _, backfill := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Backfill = backfill
		s, err := LoCBSWithPreset(tg, c, []int{1, 1, 1, 1}, cfg, preset)
		if err != nil {
			t.Fatal(err)
		}
		check("LoCBS", s)
	}
	for _, alg := range []*LoCMPS{New(), NewNoBackfill()} {
		s, err := alg.ScheduleWithPreset(tg, c, preset)
		if err != nil {
			t.Fatal(err)
		}
		check("LoC-MPS", s)
	}
}

// TestScratchReusePresetBitIdentical pins the one reuse path a scratch
// has: the shared pool hands a scratch that ran another instance's search
// to the next search. A preset-constrained search on such a scratch, and
// again on the same scratch right after it, must reproduce a fresh
// scratch's schedule and search statistics bit for bit, with the fixed
// tasks unmoved. This is the contract the rolling-horizon streaming
// rescheduler and sim.Run's re-planning rest on.
func TestScratchReusePresetBitIdentical(t *testing.T) {
	gen := func(tasks int, seed int64) *model.TaskGraph {
		p := synth.DefaultParams()
		p.Tasks, p.Seed, p.CCR = tasks, seed, 0.5
		tg, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		return tg
	}
	tg := gen(12, 99)
	cluster := presetCluster
	base, err := New().Schedule(tg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	// Freeze the two earliest-starting tasks as already running and block
	// the near past, like a mid-stream reschedule does.
	fixed := map[int]schedule.Placement{}
	horizon := 0.0
	for id, pl := range base.Placements {
		if len(fixed) == 2 {
			break
		}
		if pl.Start == 0 {
			fixed[id] = schedule.Placement{
				Procs: append([]int(nil), pl.Procs...), Start: pl.Start,
				Finish: pl.Finish, DataReady: pl.DataReady, CommTime: pl.CommTime,
			}
			horizon = max(horizon, pl.Finish)
		}
	}
	if len(fixed) == 0 {
		t.Fatal("fixture has no entry tasks at t=0")
	}
	busy := make([]float64, cluster.P)
	for i := range busy {
		busy[i] = horizon / 2
	}
	preset := Preset{Fixed: fixed, BusyUntil: busy}

	ctx := context.Background()
	fresh := scratchPool.New().(*placerScratch)
	want, wantStats, _, err := New().runSearchOn(ctx, fresh, tg, cluster, preset, nil, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.LoCBSRuns == 0 {
		t.Fatal("fresh search ran no LoCBS")
	}
	// The public entry point reports the same statistics through LastStats.
	pub := New()
	got, err := pub.ScheduleWithPreset(tg, cluster, preset)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, want, got, "ScheduleWithPreset")
	if st := pub.LastStats(); st != wantStats {
		t.Errorf("LastStats %+v, want %+v", st, wantStats)
	}

	sc := getScratch()
	defer putScratch(sc)
	if _, _, _, err := New().runSearchOn(ctx, sc, gen(20, 7), model.Cluster{P: 8, Bandwidth: 12.5e6, Overlap: true}, Preset{}, nil, Budget{}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, stats, _, err := New().runSearchOn(ctx, sc, tg, cluster, preset, nil, Budget{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertSameSchedule(t, want, got, "reused scratch")
		if stats != wantStats {
			t.Errorf("round %d: stats %+v, want %+v", round, stats, wantStats)
		}
		for id, pl := range fixed {
			g := got.Placements[id]
			if g.Start != pl.Start || g.Finish != pl.Finish {
				t.Errorf("round %d: fixed task %d moved: (%v,%v) vs (%v,%v)", round, id, g.Start, g.Finish, pl.Start, pl.Finish)
			}
		}
	}
}
