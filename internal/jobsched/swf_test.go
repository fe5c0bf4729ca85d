package jobsched

import (
	"strings"
	"testing"
)

const sampleSWF = `
; SWF header comment
; MaxProcs: 128
  1    0  10  100  16  -1 -1  16  200 -1 1 1 1 1 1 1 -1 -1
  2   50   0  300  32  -1 -1  -1  300 -1 1 2 1 1 1 1 -1 -1
  3   60   5   -1   8  -1 -1   8  100 -1 0 3 1 1 1 1 -1 -1
  4  100   0   50   4  -1 -1   4   20 -1 1 4 1 1 1 1 -1 -1
`

func TestReadSWF(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 (runtime -1) is skipped.
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	if jobs[0].Arrival != 0 || jobs[0].Procs != 16 || jobs[0].Runtime != 100 || jobs[0].Estimate != 200 {
		t.Errorf("job 0 = %+v", jobs[0])
	}
	// Requested procs -1 falls back to allocated (32).
	if jobs[1].Procs != 32 {
		t.Errorf("job 1 procs = %d", jobs[1].Procs)
	}
	// Under-estimate clamped to runtime.
	if jobs[2].Estimate != 50 {
		t.Errorf("job 3 estimate = %v, want clamped 50", jobs[2].Estimate)
	}
}

func TestReadSWFCapsWidths(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.Procs > 8 {
			t.Errorf("job %d width %d exceeds cap", i, j.Procs)
		}
	}
}

func TestReadSWFErrors(t *testing.T) {
	cases := []string{
		"",                        // no jobs
		"; only comments\n",       // no jobs
		"1 2 3\n",                 // too few fields
		"1 x 0 10 1 -1 -1 1 10\n", // non-numeric field
	}
	for i, c := range cases {
		if _, err := ReadSWF(strings.NewReader(c), 0); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadSWFRejectsNonFinite is the regression test for fields that
// strconv.ParseFloat accepts but no job can carry: NaN and infinite times
// (NaN slips past every <= 0 check) and processor counts no int can hold.
// Each must fail with an error naming the line, not load as a job.
func TestReadSWFRejectsNonFinite(t *testing.T) {
	const ok = "1 0 0 10 4 -1 -1 4 20\n"
	cases := []string{
		"2 NaN 0 10 4 -1 -1 4 20\n",   // NaN submit time
		"2 0 0 +Inf 4 -1 -1 4 20\n",   // infinite runtime
		"2 0 0 10 4 -1 -1 4 Inf\n",    // infinite estimate
		"2 0 0 10 4 -1 -1 4 nan\n",    // NaN estimate
		"2 0 0 10 4 -1 -1 1e300 20\n", // requested procs beyond int
		"2 0 0 10 1e19 -1 -1 -1 20\n", // allocated procs beyond int
		"2 0 0 10 4 -1 -1 -1e300 20\n",
	}
	for i, c := range cases {
		jobs, err := ReadSWF(strings.NewReader(ok+c), 0)
		if err == nil {
			t.Errorf("case %d %q accepted as %+v", i, c, jobs)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("case %d: error %q does not name line 2", i, err)
		}
	}
}

func TestReadSWFSimulatable(t *testing.T) {
	jobs, err := ReadSWF(strings.NewReader(sampleSWF), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{FCFS, EASY, Conservative} {
		res, err := Simulate(jobs, 64, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%v: makespan %v", strat, res.Makespan)
		}
	}
}
