package locmps_test

// Regression tests for the root facades over internal/sim (on-line) and
// internal/jobsched: a small golden workload pins their output, so facade
// wiring (type aliases, option plumbing) cannot silently drift from the
// internal packages.

import (
	"math"
	"strings"
	"testing"

	"locmps"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestFacadeExecuteOnlineGolden(t *testing.T) {
	p := locmps.DefaultSynthParams()
	p.Tasks = 10
	p.CCR = 0.5
	p.Seed = 11
	tg, err := locmps.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	c := locmps.Cluster{P: 4, Bandwidth: 12.5e6, Overlap: false}
	tr, err := locmps.ExecuteOnline(locmps.NewLoCMPS(), tg, c, locmps.OnlineOptions{
		Slowdowns: []locmps.Slowdown{{Time: 10, Node: 0, Factor: 2}},
		Policy:    locmps.ReschedulePolicy{DriftThreshold: 0.05, MaxReschedules: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Golden values for this seed: the halved node 0 stretches the run from
	// the planned ~108.97 to ~224.78 with exactly one reschedule that
	// migrates one task.
	if !approx(tr.PlannedMakespan, 108.96610303871897) {
		t.Errorf("planned makespan = %v", tr.PlannedMakespan)
	}
	if !approx(tr.Makespan, 224.776642966014) {
		t.Errorf("makespan = %v", tr.Makespan)
	}
	if tr.Reschedules != 1 || tr.Migrated != 1 {
		t.Errorf("reschedules = %d, migrated = %d, want 1 and 1", tr.Reschedules, tr.Migrated)
	}
	if len(tr.Start) != tg.N() || len(tr.Finish) != tg.N() {
		t.Errorf("per-task times have %d/%d entries", len(tr.Start), len(tr.Finish))
	}
	for i := range tr.Start {
		if tr.Finish[i] < tr.Start[i] || tr.Finish[i] > tr.Makespan+1e-9 {
			t.Errorf("task %d ran [%v,%v] outside [0,%v]", i, tr.Start[i], tr.Finish[i], tr.Makespan)
		}
	}
}

func TestFacadeSimulateJobsGolden(t *testing.T) {
	jobs := []locmps.RigidJob{
		{Arrival: 0, Procs: 3, Estimate: 10, Runtime: 10},
		{Arrival: 0, Procs: 2, Estimate: 8, Runtime: 6},
		{Arrival: 1, Procs: 1, Estimate: 4, Runtime: 4},
		{Arrival: 2, Procs: 4, Estimate: 6, Runtime: 5},
		{Arrival: 3, Procs: 1, Estimate: 2, Runtime: 2},
	}
	golden := []struct {
		strat      locmps.BackfillStrategy
		makespan   float64
		avgWait    float64
		backfilled int
		start      []float64
	}{
		// FCFS: job 1 blocks behind job 0's three processors.
		{locmps.StrategyFCFS, 23, 10.2, 0, []float64{0, 10, 10, 16, 21}},
		// EASY and conservative backfill jobs 2 and 4 into the head's
		// shadow; on this workload they agree.
		{locmps.StrategyEASY, 21, 5.2, 2, []float64{0, 10, 1, 16, 5}},
		{locmps.StrategyConservative, 21, 5.2, 2, []float64{0, 10, 1, 16, 5}},
	}
	for _, g := range golden {
		res, err := locmps.SimulateJobs(jobs, 4, g.strat)
		if err != nil {
			t.Fatalf("%v: %v", g.strat, err)
		}
		if res.Makespan != g.makespan || res.AvgWait != g.avgWait || res.Backfilled != g.backfilled {
			t.Errorf("%v: makespan=%v wait=%v backfilled=%d, want %v/%v/%d",
				g.strat, res.Makespan, res.AvgWait, res.Backfilled, g.makespan, g.avgWait, g.backfilled)
		}
		for i, want := range g.start {
			if res.Start[i] != want {
				t.Errorf("%v: job %d started %v, want %v", g.strat, i, res.Start[i], want)
			}
		}
	}
}

func TestFacadeReadSWFGolden(t *testing.T) {
	swf := `; SWF test trace
1 0 -1 10 3 -1 -1 3 12 -1 1 1 1 1 1 -1 -1 -1
2 5 -1 4 1 -1 -1 1 6 -1 1 1 1 1 1 -1 -1 -1
`
	jobs, err := locmps.ReadSWF(strings.NewReader(swf), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []locmps.RigidJob{
		{Arrival: 0, Procs: 3, Estimate: 12, Runtime: 10},
		{Arrival: 5, Procs: 1, Estimate: 6, Runtime: 4},
	}
	if len(jobs) != len(want) {
		t.Fatalf("parsed %d jobs, want %d", len(jobs), len(want))
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, jobs[i], want[i])
		}
	}
	// The parsed trace must run through the facade simulator cleanly.
	res, err := locmps.SimulateJobs(jobs, 4, locmps.StrategyEASY)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 10 {
		t.Errorf("makespan = %v, want 10 (job 1 backfills beside job 0)", res.Makespan)
	}
}
