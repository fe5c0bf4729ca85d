package locmps_test

// claims_test asserts, through the public API and at reduced scale, the
// qualitative claims EXPERIMENTS.md records — so a regression that flips a
// paper-reproduction trend fails CI rather than silently corrupting the
// tables.

import (
	"testing"

	"locmps"
)

func claimsSuite() locmps.SuiteOptions {
	o := locmps.QuickSuiteOptions()
	o.Graphs = 4
	o.MinTasks, o.MaxTasks = 10, 24
	o.Procs = []int{4, 16}
	return o
}

func lastPoint(t *testing.T, f locmps.Figure, name string) float64 {
	t.Helper()
	s, ok := f.SeriesByName(name)
	if !ok {
		t.Fatalf("series %q missing from %s", name, f.ID)
	}
	return s.Points[len(s.Points)-1].Y
}

func firstPoint(t *testing.T, f locmps.Figure, name string) float64 {
	t.Helper()
	s, ok := f.SeriesByName(name)
	if !ok {
		t.Fatalf("series %q missing from %s", name, f.ID)
	}
	return s.Points[0].Y
}

// Claim (Fig 4): at CCR=0, iCASLB tracks LoC-MPS, TASK is far worse, and
// DATA degrades as the machine grows.
func TestClaimFig4Shape(t *testing.T) {
	f, err := locmps.Fig4('a', claimsSuite())
	if err != nil {
		t.Fatal(err)
	}
	if r := lastPoint(t, f, "iCASLB"); r < 0.9 || r > 1.15 {
		t.Errorf("iCASLB at CCR=0 should track LoC-MPS, got %v", r)
	}
	if r := lastPoint(t, f, "TASK"); r > 0.5 {
		t.Errorf("TASK should be far worse at P=16, got %v", r)
	}
	if firstPoint(t, f, "DATA") < lastPoint(t, f, "DATA") {
		t.Errorf("DATA should degrade with P: %v -> %v",
			firstPoint(t, f, "DATA"), lastPoint(t, f, "DATA"))
	}
}

// Claim (Fig 5): iCASLB falls behind as CCR grows; CPR collapses at CCR=1.
func TestClaimFig5Shape(t *testing.T) {
	ccr0, err := locmps.Fig4('a', claimsSuite())
	if err != nil {
		t.Fatal(err)
	}
	ccr1, err := locmps.Fig5('b', claimsSuite())
	if err != nil {
		t.Fatal(err)
	}
	if lastPoint(t, ccr1, "iCASLB") >= lastPoint(t, ccr0, "iCASLB") {
		t.Errorf("iCASLB should degrade with CCR: %v (CCR=1) vs %v (CCR=0)",
			lastPoint(t, ccr1, "iCASLB"), lastPoint(t, ccr0, "iCASLB"))
	}
	if lastPoint(t, ccr1, "CPR") >= lastPoint(t, ccr0, "CPR") {
		t.Errorf("CPR should degrade with CCR: %v vs %v",
			lastPoint(t, ccr1, "CPR"), lastPoint(t, ccr0, "CPR"))
	}
	// DATA's relative standing improves with CCR (it never communicates).
	if lastPoint(t, ccr1, "DATA") <= lastPoint(t, ccr0, "DATA") {
		t.Errorf("DATA should improve with CCR: %v vs %v",
			lastPoint(t, ccr1, "DATA"), lastPoint(t, ccr0, "DATA"))
	}
}

// Claim (Fig 9): DATA holds up better on Strassen 4096 than 1024 at the
// same machine size (better task scalability).
func TestClaimFig9Crossover(t *testing.T) {
	o := locmps.QuickAppOptions()
	o.Procs = []int{16, 32}
	small, err := locmps.Fig9(1024, o)
	if err != nil {
		t.Fatal(err)
	}
	big, err := locmps.Fig9(4096, o)
	if err != nil {
		t.Fatal(err)
	}
	if lastPoint(t, big, "DATA") <= lastPoint(t, small, "DATA") {
		t.Errorf("DATA at 4096 (%v) should beat DATA at 1024 (%v)",
			lastPoint(t, big, "DATA"), lastPoint(t, small, "DATA"))
	}
}

// Claim (Fig 10): scheduling-cost ordering LoC-MPS > CPR > CPA > TASK at a
// non-trivial machine size.
func TestClaimFig10Ordering(t *testing.T) {
	o := locmps.QuickAppOptions()
	o.Procs = []int{16}
	f, err := locmps.Fig10("ccsd", o)
	if err != nil {
		t.Fatal(err)
	}
	loc := lastPoint(t, f, "LoC-MPS")
	cpr := lastPoint(t, f, "CPR")
	cpa := lastPoint(t, f, "CPA")
	data := lastPoint(t, f, "DATA")
	if !(loc > cpa && cpa > data) {
		t.Errorf("cost ordering violated: LoC-MPS %v, CPR %v, CPA %v, DATA %v", loc, cpr, cpa, data)
	}
}

// Claim (heterogeneous extension): the heterogeneous-aware scheduler
// avoids a degraded node when it can.
func TestClaimHeterogeneousAvoidsSlowNode(t *testing.T) {
	prof, err := locmps.NewTable([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := locmps.NewTaskGraph([]locmps.Task{
		{Name: "a", Profile: prof}, {Name: "b", Profile: prof},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := locmps.Cluster{P: 4, Bandwidth: 1e6, Overlap: true}
	s, err := locmps.ScheduleHeterogeneous(tg, c, []float64{16, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, pl := range s.Placements {
		for _, p := range pl.Procs {
			if p == 0 {
				t.Errorf("task %d placed on the degraded node", i)
			}
		}
	}
}

// Claim (on-line extension, EXPERIMENTS.md): on the examples/online
// scenario — 24 tasks, P=8, CCR 0.1, node 0 at 1/8 speed from t=0.1 —
// re-planning with reallocation recovers at least 90% of the
// slowdown-induced loss (measured: planned 108.41, static 862.16,
// adaptive 165.20, 92.5%).
func TestClaimOnlineRecovery(t *testing.T) {
	p := locmps.DefaultSynthParams()
	p.Tasks = 24
	p.CCR = 0.1
	p.Seed = 11
	tg, err := locmps.Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	c := locmps.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: true}
	ev := []locmps.Slowdown{{Time: 0.1, Node: 0, Factor: 8}}
	static, err := locmps.ExecuteOnline(locmps.NewLoCMPS(), tg, c, locmps.OnlineOptions{Slowdowns: ev})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := locmps.ExecuteOnline(locmps.NewLoCMPS(), tg, c, locmps.OnlineOptions{
		Slowdowns: ev,
		Policy:    locmps.ReschedulePolicy{DriftThreshold: 0.05, Reallocate: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	loss := static.Makespan - static.PlannedMakespan
	recovered := (static.Makespan - adaptive.Makespan) / loss
	if adaptive.Reschedules < 1 || loss <= 0 || recovered < 0.9 {
		t.Errorf("planned %.2f static %.2f adaptive %.2f: recovered %.1f%% with %d reschedules, want >= 90%% and >= 1",
			static.PlannedMakespan, static.Makespan, adaptive.Makespan, 100*recovered, adaptive.Reschedules)
	}
}
