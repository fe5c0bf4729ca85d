package jobsched

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadSWF parses the Standard Workload Format used by the Parallel
// Workloads Archive (Feitelson): one job per line with 18 whitespace-
// separated fields, ';' comments. The fields consumed here are submit
// time (2), run time (4), allocated processors (5), requested processors
// (8) and requested time (9); requested values fall back to the
// allocated/actual ones when absent (-1). Jobs that never ran (runtime or
// width <= 0) are skipped, as is conventional when replaying traces. A
// non-finite field (NaN, ±Inf) or a processor count outside int range is
// an error that names the line.
//
// maxProcs caps job widths (traces sometimes exceed the simulated
// machine); pass 0 to keep all widths.
func ReadSWF(r io.Reader, maxProcs int) ([]Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var jobs []Job
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 9 {
			return nil, fmt.Errorf("jobsched: swf line %d: %d fields, need >= 9", lineNo, len(f))
		}
		get := func(i int) (float64, error) {
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("jobsched: swf line %d field %d: %q", lineNo, i, f[i-1])
			}
			return v, nil
		}
		getProcs := func(i int) (float64, error) {
			v, err := get(i)
			if err == nil && (v >= float64(math.MaxInt) || v < float64(math.MinInt)) {
				err = fmt.Errorf("jobsched: swf line %d field %d: processor count %q outside int range", lineNo, i, f[i-1])
			}
			return v, err
		}
		submit, err := get(2)
		if err != nil {
			return nil, err
		}
		run, err := get(4)
		if err != nil {
			return nil, err
		}
		alloc, err := getProcs(5)
		if err != nil {
			return nil, err
		}
		req, err := getProcs(8)
		if err != nil {
			return nil, err
		}
		est, err := get(9)
		if err != nil {
			return nil, err
		}

		procs := int(req)
		if procs <= 0 {
			procs = int(alloc)
		}
		if run <= 0 || procs <= 0 || submit < 0 {
			continue // cancelled / broken record
		}
		if maxProcs > 0 && procs > maxProcs {
			procs = maxProcs
		}
		if est < run {
			est = run // under-estimates are clamped, as schedulers do
		}
		jobs = append(jobs, Job{
			Arrival:  submit,
			Procs:    procs,
			Runtime:  run,
			Estimate: est,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobsched: reading swf: %w", err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("jobsched: no usable jobs in swf input")
	}
	return jobs, nil
}
