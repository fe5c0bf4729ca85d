package jobsched

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadSWF asserts that arbitrary trace text never panics the SWF
// reader and that every job it accepts is one the simulators accept: a
// finite non-negative arrival, a width within the cap, and a finite
// positive runtime no larger than its finite estimate. `go test` runs the
// seed corpus; use `go test -fuzz FuzzReadSWF ./internal/jobsched` for
// exploration.
func FuzzReadSWF(f *testing.F) {
	f.Add(sampleSWF)
	f.Add("")
	f.Add("1 0 0 10 4 -1 -1 4 20\n")
	f.Add("1 NaN 0 +Inf 4 -1 -1 4 Inf\n")
	f.Add("1 0 0 10 1e300 -1 -1 -1 20\n")
	f.Add("1 0 0 10 4 -1 -1 4 20 ; trailing comment\n")
	const maxProcs = 64
	f.Fuzz(func(t *testing.T, input string) {
		jobs, err := ReadSWF(strings.NewReader(input), maxProcs)
		if err != nil {
			return
		}
		if len(jobs) == 0 {
			t.Fatal("no jobs and no error")
		}
		for i, j := range jobs {
			if err := validateJob(i, j, maxProcs); err != nil {
				t.Errorf("accepted job fails validation: %v", err)
			}
			if math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) || math.IsInf(j.Estimate, 0) {
				t.Errorf("accepted job %d has a non-finite field: %+v", i, j)
			}
		}
	})
}
