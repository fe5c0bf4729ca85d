package jobsched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	bad := []struct {
		jobs []Job
		p    int
	}{
		{[]Job{{Procs: 1, Runtime: 1, Estimate: 1}}, 0},
		{[]Job{{Procs: 0, Runtime: 1, Estimate: 1}}, 2},
		{[]Job{{Procs: 3, Runtime: 1, Estimate: 1}}, 2},
		{[]Job{{Procs: 1, Runtime: 0, Estimate: 1}}, 2},
		{[]Job{{Procs: 1, Runtime: 2, Estimate: 1}}, 2},
		{[]Job{{Procs: 1, Runtime: 1, Estimate: 1, Arrival: -1}}, 2},
		{[]Job{{Procs: 1, Runtime: math.NaN(), Estimate: 1}}, 2},
	}
	for i, c := range bad {
		if _, err := Simulate(c.jobs, c.p, FCFS); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// The classic textbook example: EASY backfills a small job into the hole
// in front of a wide blocked job; FCFS leaves the hole empty.
func TestEASYBackfillsClassicExample(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Procs: 2, Runtime: 10, Estimate: 10}, // J0 runs [0,10) on 2 of 4
		{Arrival: 0, Procs: 4, Runtime: 10, Estimate: 10}, // J1 blocked until 10
		{Arrival: 0, Procs: 2, Runtime: 10, Estimate: 10}, // J2 can backfill [0,10)
	}
	fcfs, err := Simulate(jobs, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	easy, err := Simulate(jobs, 4, EASY)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Simulate(jobs, 4, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if fcfs.Makespan != 30 {
		t.Errorf("FCFS makespan = %v, want 30", fcfs.Makespan)
	}
	for name, r := range map[string]Result{"EASY": easy, "CONS": cons} {
		if r.Makespan != 20 {
			t.Errorf("%s makespan = %v, want 20", name, r.Makespan)
		}
		if r.Start[2] != 0 {
			t.Errorf("%s did not backfill J2: start %v", name, r.Start[2])
		}
		if r.Start[1] != 10 {
			t.Errorf("%s delayed the blocked head: start %v", name, r.Start[1])
		}
		if r.Backfilled != 1 {
			t.Errorf("%s backfilled = %d", name, r.Backfilled)
		}
	}
	if easy.Utilization <= fcfs.Utilization {
		t.Errorf("EASY utilization %v not above FCFS %v", easy.Utilization, fcfs.Utilization)
	}
}

// EASY must not delay the head's reservation: a backfill candidate whose
// estimate runs past the shadow time and which would occupy the head's
// processors stays queued.
func TestEASYRespectsHeadReservation(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Procs: 2, Runtime: 10, Estimate: 10}, // running [0,10)
		{Arrival: 0, Procs: 4, Runtime: 5, Estimate: 5},   // head, reserved at 10
		{Arrival: 0, Procs: 2, Runtime: 20, Estimate: 20}, // would push head to 20
	}
	easy, err := Simulate(jobs, 4, EASY)
	if err != nil {
		t.Fatal(err)
	}
	if easy.Start[1] != 10 {
		t.Errorf("head start = %v, want 10", easy.Start[1])
	}
	if easy.Start[2] < 10 {
		t.Errorf("greedy backfill delayed head: J2 started %v", easy.Start[2])
	}
}

// Conservative never starts any job later than FCFS would... that is not
// a theorem; what IS guaranteed: reservations are assigned in arrival
// order, so with exact estimates no job is delayed by a later arrival.
func TestConservativeOrderSafety(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Procs: 3, Runtime: 10, Estimate: 10},
		{Arrival: 1, Procs: 2, Runtime: 10, Estimate: 10},
		{Arrival: 2, Procs: 1, Runtime: 3, Estimate: 3}, // fits beside J0
		{Arrival: 3, Procs: 1, Runtime: 30, Estimate: 30},
	}
	cons, err := Simulate(jobs, 4, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	// J2 backfills beside J0 (1 proc free during [2,10)) without delaying
	// J1's reservation at 10.
	if cons.Start[2] != 2 {
		t.Errorf("J2 start = %v, want 2", cons.Start[2])
	}
	if cons.Start[1] != 10 {
		t.Errorf("J1 start = %v, want 10", cons.Start[1])
	}
}

// Workload generates a deterministic random job stream.
func workload(seed int64, n, p int) []Job {
	r := rand.New(rand.NewSource(seed))
	jobs := make([]Job, n)
	now := 0.0
	for i := range jobs {
		now += r.ExpFloat64() * 5
		run := math.Exp(r.Float64()*4) + 1 // log-uniform-ish 2..55
		width := 1 << r.Intn(3)            // 1,2,4
		if width > p {
			width = p
		}
		jobs[i] = Job{
			Arrival:  now,
			Procs:    width,
			Runtime:  run,
			Estimate: run * (1 + r.Float64()*2), // over-estimates
		}
	}
	return jobs
}

// Properties on random workloads, all strategies:
//  1. every job runs after arrival,
//  2. processors are never oversubscribed,
//  3. utilization in (0, 1],
//  4. backfilling strategies never produce a longer makespan than FCFS on
//     exact-estimate workloads... (not guaranteed with over-estimates, so
//     only checked for exact estimates).
func TestStrategiesInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := 4 + int(seed%5)
		if p < 4 {
			p = 4
		}
		jobs := workload(seed, 30, p)
		for _, strat := range []Strategy{FCFS, EASY, Conservative} {
			res, err := Simulate(jobs, p, strat)
			if err != nil {
				t.Logf("%v: %v", strat, err)
				return false
			}
			type iv struct {
				s, f  float64
				procs int
			}
			var ivs []iv
			for i, job := range jobs {
				if res.Start[i] < job.Arrival-1e-9 {
					t.Logf("%v: job %d started before arrival", strat, i)
					return false
				}
				if math.Abs(res.Finish[i]-res.Start[i]-job.Runtime) > 1e-9 {
					return false
				}
				ivs = append(ivs, iv{res.Start[i], res.Finish[i], job.Procs})
			}
			// Oversubscription check by sweeping start/end events.
			var events []float64
			for _, v := range ivs {
				events = append(events, v.s, v.f)
			}
			sort.Float64s(events)
			for _, e := range events {
				used := 0
				for _, v := range ivs {
					if v.s <= e && e < v.f {
						used += v.procs
					}
				}
				if used > p {
					t.Logf("%v: %d procs used at %v (P=%d)", strat, used, e, p)
					return false
				}
			}
			if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// With exact estimates, EASY and conservative backfilling characteristic:
// average wait never worse than FCFS on these workloads (the behaviour
// ref [12] characterizes).
func TestBackfillingImprovesWaitOnAverage(t *testing.T) {
	var fcfsW, easyW, consW float64
	for seed := int64(0); seed < 10; seed++ {
		jobs := workload(seed, 40, 8)
		for i := range jobs {
			jobs[i].Estimate = jobs[i].Runtime // exact estimates
		}
		f, err := Simulate(jobs, 8, FCFS)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Simulate(jobs, 8, EASY)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Simulate(jobs, 8, Conservative)
		if err != nil {
			t.Fatal(err)
		}
		fcfsW += f.AvgWait
		easyW += e.AvgWait
		consW += c.AvgWait
	}
	if easyW > fcfsW {
		t.Errorf("EASY mean wait %v worse than FCFS %v", easyW/10, fcfsW/10)
	}
	if consW > fcfsW {
		t.Errorf("Conservative mean wait %v worse than FCFS %v", consW/10, fcfsW/10)
	}
	t.Logf("avg waits: FCFS %.2f, EASY %.2f, CONS %.2f", fcfsW/10, easyW/10, consW/10)
}

func TestStrategyString(t *testing.T) {
	if FCFS.String() != "FCFS" || EASY.String() != "EASY" || Conservative.String() != "CONS" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy has empty name")
	}
}

// goldenEASYMakespan pins the EASY replay of the fixed 60-job trace in
// TestSimulateGoldenEASY; the event loop must not move it.
const goldenEASYMakespan = 736.9230829130137

func TestSimulateGoldenEASY(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const p = 16
	jobs := make([]Job, 60)
	arr := 0.0
	for i := range jobs {
		arr += r.Float64() * 5
		run := 1 + r.Float64()*30
		jobs[i] = Job{Arrival: arr, Procs: 1 + r.Intn(p), Runtime: run, Estimate: run * (1 + r.Float64())}
	}
	res, err := Simulate(jobs, p, EASY)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != goldenEASYMakespan {
		t.Errorf("golden EASY makespan drifted: got %v, want %v", res.Makespan, goldenEASYMakespan)
	}
}
