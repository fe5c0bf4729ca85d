package stream

import (
	"testing"

	"locmps/internal/audit"
	"locmps/internal/core"
)

// churnScenario is a stream with a failure per job and a shrink/grow pair:
// Poisson arrivals of 11-task jobs on 64 processors, each job losing its
// running tasks 10 time units after it arrives. Events then land while
// earlier tasks have finished, so every search runs with finished fixed
// tasks below the processors' busy frontier.
func churnScenario(t *testing.T, seed int64) Config {
	t.Helper()
	jobs := poissonJobs(t, PoissonOpts{Jobs: 8, Rate: 0.03, MinTasks: 11, MaxTasks: 11, Seed: seed})
	c := testCluster(64)
	c.Overlap = true
	cfg := Config{Cluster: c, Jobs: jobs}
	for i, job := range jobs {
		cfg.Failures = append(cfg.Failures, Fail{Time: job.Arrival + 10, Job: i})
	}
	cfg.Resizes = []Resize{
		{Time: jobs[2].Arrival + 5, Procs: c.P / 2},
		{Time: jobs[5].Arrival + 5, Procs: c.P},
	}
	return cfg
}

// TestStreamEndStateRespectsJobBounds: the end state — what the stream
// actually executed — passes the audit with accounting, and no job
// finishes sooner after its arrival than its own makespan lower bound
// allows. A plan that placed work in the past (before the event that
// produced it) breaks one or the other.
//
// The seeds are streams 0, 11 and 12 of the e2ebench stream workload at
// seed 1; with a fixed task's span booked on top of its processors' busy
// span, the first breaks a job's bound and the other two also fail the
// audit.
func TestStreamEndStateRespectsJobBounds(t *testing.T) {
	for _, seed := range []int64{7919, 7930, 7931} {
		cfg := churnScenario(t, seed)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if err := audit.Check(res.EndGraph, res.End, audit.Options{RequireAccounting: true}).Err(); err != nil {
			t.Errorf("seed %d: end state failed audit: %v", seed, err)
		}
		for i, job := range cfg.Jobs {
			lb, err := core.LowerBound(job.TG, cfg.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			if resp := res.JobCompletion[i] - job.Arrival; resp < lb*(1-1e-9) {
				t.Errorf("seed %d job %d: completed %.6g after arrival, under its lower bound %.6g", seed, i, resp, lb)
			}
		}
	}
}
