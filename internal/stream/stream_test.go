package stream

import (
	"strings"
	"testing"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

func testCluster(p int) model.Cluster {
	return model.Cluster{P: p, Bandwidth: 12.5e6}
}

func poissonJobs(t *testing.T, o PoissonOpts) []Job {
	t.Helper()
	jobs, err := PoissonJobs(o)
	if err != nil {
		t.Fatalf("PoissonJobs: %v", err)
	}
	return jobs
}

// smallOpts is a light workload: a handful of small DAGs trickling in
// slowly enough that completions interleave with arrivals.
func smallOpts() PoissonOpts {
	return PoissonOpts{Jobs: 5, Rate: 0.02, MinTasks: 4, MaxTasks: 7, Seed: 7}
}

func TestStreamDrains(t *testing.T) {
	jobs := poissonJobs(t, smallOpts())
	res, err := Run(Config{Cluster: testCluster(8), Jobs: jobs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events recorded")
	}
	for i, c := range res.JobCompletion {
		if c <= jobs[i].Arrival {
			t.Errorf("job %d completion %v not after arrival %v", i, c, jobs[i].Arrival)
		}
	}
	if res.Searches == 0 {
		t.Error("no real searches ran")
	}
	if res.ResumedRuns == 0 {
		t.Error("no empty-delta fast paths: workload should have bare completion events")
	}
	if res.End == nil || res.EndGraph == nil {
		t.Fatal("missing end state")
	}
	if err := audit.Check(res.EndGraph, res.End, audit.Options{RequireAccounting: true}).Err(); err != nil {
		t.Errorf("end state failed audit: %v", err)
	}
}

// TestStreamEmptyDeltaNoOp is the no-op property: an event that carries
// no arrivals, failures or resizes (a plan-predicted completion) must
// resume the cached plan outright — same object, bit-identical
// schedule, zero placement runs — and count as a resumed run.
func TestStreamEmptyDeltaNoOp(t *testing.T) {
	s, err := New(Config{Cluster: testCluster(8), Jobs: poissonJobs(t, smallOpts())})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	fastPaths := 0
	for {
		prev := s.Plan()
		var prevClone *schedule.Schedule
		if prev != nil {
			prevClone = prev.Clone()
		}
		rec, ok, err := s.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !ok {
			break
		}
		if !rec.FastPath {
			continue
		}
		fastPaths++
		if rec.Arrivals != 0 || rec.Failures != 0 || rec.Resized || rec.Retired != 0 {
			t.Fatalf("fast path taken on a real delta: %+v", rec)
		}
		if s.Plan() != prev {
			t.Fatal("fast path replaced the plan object")
		}
		if diff := audit.DiffSchedules(s.Graph(), s.Plan(), prevClone); diff != "" {
			t.Fatalf("fast path changed the schedule: %s", diff)
		}
		if rec.Stats != (core.SearchStats{}) {
			t.Fatalf("fast path ran search work: %+v", rec.Stats)
		}
	}
	if fastPaths == 0 {
		t.Fatal("workload produced no empty-delta events")
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.ResumedRuns != fastPaths {
		t.Errorf("ResumedRuns = %d, want %d", res.ResumedRuns, fastPaths)
	}
}

// goldenT0Makespan pins the end-state makespan of the all-arrivals-at-
// t=0 differential scenario; it must match batch-scheduling the union
// graph bit for bit, so any drift here is a real behaviour change.
const goldenT0Makespan = 100.19239751281886

// TestStreamT0MatchesBatch is the batch-equivalence differential: a
// trace whose jobs all arrive at t=0 must stream to exactly the schedule
// the batch scheduler produces for the union of the job set.
func TestStreamT0MatchesBatch(t *testing.T) {
	jobs := poissonJobs(t, smallOpts())
	for i := range jobs {
		jobs[i].Arrival = 0
	}
	c := testCluster(8)
	res, err := Run(Config{Cluster: c, Jobs: jobs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	union, err := UnionGraph(jobs)
	if err != nil {
		t.Fatalf("UnionGraph: %v", err)
	}
	batch, err := core.New().Schedule(union, c)
	if err != nil {
		t.Fatalf("batch schedule: %v", err)
	}
	if diff := audit.DiffSchedules(res.EndGraph, res.End, batch); diff != "" {
		t.Fatalf("streamed end state differs from batch: %s", diff)
	}
	if res.End.Makespan != goldenT0Makespan {
		t.Errorf("golden t=0 makespan drifted: got %v, want %v", res.End.Makespan, goldenT0Makespan)
	}
}

// churnConfig is a scenario with every delta kind: staggered arrivals,
// mid-run failures, a shrink and a grow.
func churnConfig(t *testing.T) Config {
	jobs := poissonJobs(t, PoissonOpts{Jobs: 6, Rate: 0.02, MinTasks: 4, MaxTasks: 8, Seed: 11})
	var fails []Fail
	for j := range jobs {
		// Several probes per job: whichever lands while the job has a
		// running task re-opens it; the rest are no-ops.
		fails = append(fails,
			Fail{Time: jobs[j].Arrival + 10, Job: j},
			Fail{Time: jobs[j].Arrival + 40, Job: j})
	}
	return Config{
		Cluster:  testCluster(8),
		Jobs:     jobs,
		Failures: fails,
		Resizes: []Resize{
			{Time: jobs[1].Arrival + 5, Procs: 4},
			{Time: jobs[3].Arrival + 5, Procs: 8},
		},
	}
}

// TestStreamChurnAuditClean drives the failure/shrink/grow scenario and
// audits the emitted schedule at every single event, fast paths
// included.
func TestStreamChurnAuditClean(t *testing.T) {
	s, err := New(churnConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	failures, resizes := 0, 0
	for {
		rec, ok, err := s.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !ok {
			break
		}
		failures += rec.Failures
		if rec.Resized {
			resizes++
		}
		if s.Plan() != nil {
			if err := audit.Check(s.Graph(), s.Plan(), audit.Options{RequireAccounting: true}).Err(); err != nil {
				t.Fatalf("event at t=%v failed audit: %v", rec.Time, err)
			}
		}
	}
	if failures == 0 {
		t.Error("no failure probe landed on a running task; widen the probes")
	}
	if resizes != 2 {
		t.Errorf("resize events = %d, want 2", resizes)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if err := audit.Check(res.EndGraph, res.End, audit.Options{RequireAccounting: true}).Err(); err != nil {
		t.Errorf("end state failed audit: %v", err)
	}
}

// TestStreamIncrementalMatchesScratch: the accelerated rolling-horizon
// path (shared tables, memo/resume) must replay to
// bit-identical schedules and event times as the naive
// rebuild-everything reference mode.
func TestStreamIncrementalMatchesScratch(t *testing.T) {
	cfg := churnConfig(t)
	inc, err := Run(cfg)
	if err != nil {
		t.Fatalf("incremental run: %v", err)
	}
	cfg2 := cfg
	cfg2.Scratch = true
	scr, err := Run(cfg2)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}
	if len(inc.Events) != len(scr.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(inc.Events), len(scr.Events))
	}
	for i := range inc.Events {
		if inc.Events[i].Time != scr.Events[i].Time {
			t.Fatalf("event %d at %v (incremental) vs %v (scratch)", i, inc.Events[i].Time, scr.Events[i].Time)
		}
	}
	for j := range inc.JobCompletion {
		if inc.JobCompletion[j] != scr.JobCompletion[j] {
			t.Fatalf("job %d completion %v vs %v", j, inc.JobCompletion[j], scr.JobCompletion[j])
		}
	}
	if diff := audit.DiffSchedules(inc.EndGraph, inc.End, scr.End); diff != "" {
		t.Fatalf("end states differ: %s", diff)
	}
}

func TestStreamValidation(t *testing.T) {
	tg := poissonJobs(t, PoissonOpts{Jobs: 1, Rate: 1, MinTasks: 3, MaxTasks: 3, Seed: 1})[0].TG
	c := testCluster(4)
	cases := []Config{
		{Cluster: c, Jobs: []Job{{Arrival: 0}}},
		{Cluster: c, Jobs: []Job{{Arrival: -1, TG: tg}}},
		{Cluster: c, Jobs: []Job{{Arrival: 0, TG: tg}}, Failures: []Fail{{Time: 1, Job: 5}}},
		{Cluster: c, Jobs: []Job{{Arrival: 0, TG: tg}}, Resizes: []Resize{{Time: 1, Procs: 9}}},
		{Cluster: model.Cluster{}, Jobs: []Job{{Arrival: 0, TG: tg}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted an invalid config", i)
		}
	}
}

func TestPoissonJobsDeterministicAndBursty(t *testing.T) {
	o := PoissonOpts{Jobs: 8, Rate: 0.1, Burst: 2, BurstSize: 3, MinTasks: 3, MaxTasks: 5, Seed: 42}
	a := poissonJobs(t, o)
	b := poissonJobs(t, o)
	coincident := 0
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].TG.N() != b[i].TG.N() {
			t.Fatalf("job %d not deterministic", i)
		}
		if i > 0 && a[i].Arrival == a[i-1].Arrival {
			coincident++
		}
	}
	if coincident == 0 {
		t.Error("burst knob produced no coincident arrivals")
	}
}

const testSWF = `; synthetic smoke trace
1 0    0 120 4 -1 -1 4 200 -1 1 1 1 1 1 -1 -1 -1
2 30   0  90 2 -1 -1 2 100 -1 1 1 1 1 1 -1 -1 -1
3 95   0  60 8 -1 -1 8  60 -1 1 1 1 1 1 -1 -1 -1
4 140  0 240 1 -1 -1 1 300 -1 1 1 1 1 1 -1 -1 -1
`

func TestSWFJobs(t *testing.T) {
	jobs, err := SWFJobs(strings.NewReader(testSWF), 8, SWFOpts{
		MinTasks: 3, MaxTasks: 6, TimeScale: 0.125, Seed: 3,
	})
	if err != nil {
		t.Fatalf("SWFJobs: %v", err)
	}
	if len(jobs) != 4 {
		t.Fatalf("parsed %d jobs, want 4", len(jobs))
	}
	if jobs[1].Arrival != 30*0.125 {
		t.Errorf("arrival scaling: got %v, want %v", jobs[1].Arrival, 30*0.125)
	}
	if n := jobs[2].TG.N(); n != 6 {
		t.Errorf("job 2 DAG size %d, want clamp(8)=6", n)
	}
	if n := jobs[3].TG.N(); n != 3 {
		t.Errorf("job 3 DAG size %d, want clamp(1)=3", n)
	}
	res, err := Run(Config{Cluster: testCluster(8), Jobs: jobs})
	if err != nil {
		t.Fatalf("Run(SWF): %v", err)
	}
	if res.End == nil {
		t.Fatal("SWF replay produced no end state")
	}
}

func TestUnionGraphOrdersByArrival(t *testing.T) {
	g1, err := synth.Generate(synth.Params{Tasks: 3, AvgDegree: 1, MeanWork: 10, AMax: 4, Sigma: 1, Bandwidth: 12.5e6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := synth.Generate(synth.Params{Tasks: 2, AvgDegree: 1, MeanWork: 10, AMax: 4, Sigma: 1, Bandwidth: 12.5e6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	union, err := UnionGraph([]Job{{Arrival: 5, TG: g1}, {Arrival: 1, TG: g2}})
	if err != nil {
		t.Fatalf("UnionGraph: %v", err)
	}
	if union.N() != 5 {
		t.Fatalf("union has %d tasks, want 5", union.N())
	}
	// g2 arrives first, so its tasks occupy indices 0..1.
	if union.Tasks[0].Name != g2.Tasks[0].Name {
		t.Errorf("union not in arrival order: task 0 is %q", union.Tasks[0].Name)
	}
}
