// Package jobsched implements classic space-sharing parallel-job
// scheduling with backfilling — the substrate the paper borrows from
// parallel job schedulers ([12], Srinivasan et al., "Characterization of
// backfilling strategies for parallel job scheduling"): rigid jobs
// (fixed processor width), FCFS base order, and the EASY and conservative
// backfilling strategies that move smaller jobs into schedule holes
// without delaying reservations. LoCBS (internal/core) adapts the same
// hole-filling idea to malleable tasks with data locality; this package
// provides the reference behaviour in its original setting, plus the
// standard metrics (wait, bounded slowdown, utilization) used to
// characterize strategies.
package jobsched

import (
	"fmt"
	"math"
	"sort"
)

// Job is one rigid parallel job.
type Job struct {
	// Arrival is the submission time.
	Arrival float64
	// Procs is the (rigid) number of processors required.
	Procs int
	// Estimate is the user-provided runtime estimate used for
	// reservations; jobs are assumed to finish within it.
	Estimate float64
	// Runtime is the actual runtime (0 < Runtime <= Estimate).
	Runtime float64
}

// Strategy selects the scheduling discipline.
type Strategy int

const (
	// FCFS starts jobs strictly in arrival order; the queue head blocks
	// everything behind it.
	FCFS Strategy = iota
	// EASY backfills a job iff it does not delay the queue head's
	// reservation (aggressive backfilling).
	EASY
	// Conservative gives every queued job a reservation and backfills
	// only moves that delay no earlier reservation.
	Conservative
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FCFS:
		return "FCFS"
	case EASY:
		return "EASY"
	case Conservative:
		return "CONS"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Result reports a simulation.
type Result struct {
	Start, Finish []float64
	Makespan      float64
	// AvgWait is the mean queueing delay.
	AvgWait float64
	// AvgBoundedSlowdown is the mean of max(1, (wait+run)/max(run, tau))
	// with tau = 10 (the standard threshold).
	AvgBoundedSlowdown float64
	// Utilization is busy processor-time over P * makespan.
	Utilization float64
	// Backfilled counts jobs that started before an earlier-arrived job.
	Backfilled int
}

const slowdownTau = 10

// Simulate runs the job stream on P processors under the strategy.
func Simulate(jobs []Job, p int, strat Strategy) (Result, error) {
	if p < 1 {
		return Result{}, fmt.Errorf("jobsched: need at least 1 processor, got %d", p)
	}
	for i, j := range jobs {
		if err := validateJob(i, j, p); err != nil {
			return Result{}, err
		}
	}
	s := &simulator{jobs: jobs, p: p, strat: strat}
	return s.run()
}

// validateJob applies Simulate's per-job admission checks.
func validateJob(i int, j Job, p int) error {
	switch {
	case j.Procs < 1 || j.Procs > p:
		return fmt.Errorf("jobsched: job %d needs %d of %d processors", i, j.Procs, p)
	case j.Runtime <= 0 || math.IsNaN(j.Runtime) || math.IsInf(j.Runtime, 0):
		return fmt.Errorf("jobsched: job %d has invalid runtime %v", i, j.Runtime)
	case j.Estimate < j.Runtime:
		return fmt.Errorf("jobsched: job %d runtime %v exceeds estimate %v", i, j.Runtime, j.Estimate)
	case j.Arrival < 0:
		return fmt.Errorf("jobsched: job %d has negative arrival %v", i, j.Arrival)
	}
	return nil
}

type running struct {
	job       int
	finish    float64 // actual completion
	estFinish float64 // estimated completion (reservation basis)
	procs     int
}

type simulator struct {
	jobs  []Job
	p     int
	strat Strategy

	now     float64
	free    int
	queue   []int // indices in arrival order
	active  []running
	started []bool
	order   []int // job indices sorted stably by arrival
	next    int   // next arrival index in order
	done    int   // completed jobs
	res     Result
}

// run replays the jobs: at each event instant it processes the arrivals,
// then the completions, then one dispatch round.
func (s *simulator) run() (Result, error) {
	n := len(s.jobs)
	s.res.Start = make([]float64, n)
	s.res.Finish = make([]float64, n)
	s.started = make([]bool, n)
	s.free = s.p
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return s.jobs[s.order[a]].Arrival < s.jobs[s.order[b]].Arrival
	})
	for s.done < n {
		// The next event is the earliest pending arrival or completion.
		t := math.Inf(1)
		if s.next < n {
			t = s.jobs[s.order[s.next]].Arrival
		}
		for _, r := range s.active {
			if r.finish < t {
				t = r.finish
			}
		}
		if math.IsInf(t, 1) {
			return Result{}, fmt.Errorf("jobsched: stalled with %d of %d jobs done", s.done, n)
		}
		s.now = t
		for s.next < n && s.jobs[s.order[s.next]].Arrival <= s.now {
			s.queue = append(s.queue, s.order[s.next])
			s.next++
		}
		kept := s.active[:0]
		for _, r := range s.active {
			if r.finish <= s.now {
				s.free += r.procs
				s.done++
			} else {
				kept = append(kept, r)
			}
		}
		s.active = kept
		s.dispatch()
	}
	return s.finalize(), nil
}

// start launches job j now.
func (s *simulator) start(j int) {
	job := s.jobs[j]
	s.free -= job.Procs
	s.active = append(s.active, running{
		job:       j,
		finish:    s.now + job.Runtime,
		estFinish: s.now + job.Estimate,
		procs:     job.Procs,
	})
	s.started[j] = true
	s.res.Start[j] = s.now
	s.res.Finish[j] = s.now + job.Runtime
}

// dispatch starts whatever the strategy allows at the current time.
func (s *simulator) dispatch() {
	// Always start the longest FCFS prefix that fits.
	for len(s.queue) > 0 && s.jobs[s.queue[0]].Procs <= s.free {
		s.start(s.queue[0])
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 {
		return
	}
	switch s.strat {
	case FCFS:
		// Head blocks; nothing else may run.
	case EASY:
		s.easyBackfill()
	case Conservative:
		s.conservativeBackfill()
	}
}

// easyBackfill starts queued jobs (beyond the head) that fit now without
// delaying the head's reservation, computed from estimated completions.
func (s *simulator) easyBackfill() {
	head := s.jobs[s.queue[0]]
	shadow, extra := s.headReservation(head.Procs)
	for i := 1; i < len(s.queue); {
		j := s.queue[i]
		job := s.jobs[j]
		fits := job.Procs <= s.free
		noDelay := s.now+job.Estimate <= shadow+1e-12 || job.Procs <= extra
		if fits && noDelay {
			s.start(j)
			s.res.Backfilled++
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			if job.Procs > extra {
				extra = 0
			} else {
				extra -= job.Procs
			}
		} else {
			i++
		}
	}
}

// headReservation computes the head's earliest start (shadow time) from
// running jobs' estimated completions, and the processors left over at
// that moment (the "extra" that backfill may consume indefinitely).
func (s *simulator) headReservation(need int) (shadow float64, extra int) {
	if need <= s.free {
		return s.now, s.free - need
	}
	byEst := append([]running(nil), s.active...)
	sort.Slice(byEst, func(a, b int) bool { return byEst[a].estFinish < byEst[b].estFinish })
	avail := s.free
	for _, r := range byEst {
		avail += r.procs
		if avail >= need {
			return r.estFinish, avail - need
		}
	}
	// Unreachable for validated jobs (need <= P).
	return math.Inf(1), 0
}

// conservativeBackfill rebuilds reservations for the whole queue against
// the availability profile and starts every job whose reserved start is
// now. Since reservations are assigned in arrival order, no later job can
// delay an earlier one.
func (s *simulator) conservativeBackfill() {
	prof := s.profile()
	startNow := s.queue[:0:0]
	rest := s.queue[:0:0]
	for _, j := range s.queue {
		job := s.jobs[j]
		at := prof.earliest(job.Procs, job.Estimate, s.now)
		prof.reserve(job.Procs, at, at+job.Estimate)
		if at <= s.now+1e-12 {
			startNow = append(startNow, j)
			if len(rest) > 0 {
				// An earlier-queued job keeps waiting: this start jumped
				// the queue, i.e. it backfilled.
				s.res.Backfilled++
			}
		} else {
			rest = append(rest, j)
		}
	}
	for _, j := range startNow {
		s.start(j)
	}
	s.queue = rest
}

func (s *simulator) finalize() Result {
	var wait, slow, area float64
	for i, job := range s.jobs {
		w := s.res.Start[i] - job.Arrival
		wait += w
		slow += math.Max(1, (w+job.Runtime)/math.Max(job.Runtime, slowdownTau))
		area += float64(job.Procs) * job.Runtime
		if s.res.Finish[i] > s.res.Makespan {
			s.res.Makespan = s.res.Finish[i]
		}
	}
	if n := float64(len(s.jobs)); n > 0 {
		s.res.AvgWait = wait / n
		s.res.AvgBoundedSlowdown = slow / n
	}
	if s.res.Makespan > 0 {
		s.res.Utilization = area / (float64(s.p) * s.res.Makespan)
	}
	return s.res
}

// profile is a step function of free processors over time, built from the
// currently running jobs' estimated completions.
type profile struct {
	// times are the step boundaries (ascending), avail[i] is the free
	// processor count during [times[i], times[i+1]).
	times []float64
	avail []int
	p     int
}

// profile snapshots the current availability based on estimates.
func (s *simulator) profile() *profile {
	pr := &profile{p: s.p}
	type ev struct {
		t     float64
		procs int
	}
	evs := []ev{{s.now, s.free}}
	byEst := append([]running(nil), s.active...)
	sort.Slice(byEst, func(a, b int) bool { return byEst[a].estFinish < byEst[b].estFinish })
	cur := s.free
	for _, r := range byEst {
		cur += r.procs
		evs = append(evs, ev{r.estFinish, cur})
	}
	for _, e := range evs {
		if len(pr.times) > 0 && e.t == pr.times[len(pr.times)-1] {
			pr.avail[len(pr.avail)-1] = e.procs
			continue
		}
		pr.times = append(pr.times, e.t)
		pr.avail = append(pr.avail, e.procs)
	}
	return pr
}

// earliest finds the first time >= from at which procs processors are
// continuously free for dur.
func (pr *profile) earliest(procs int, dur, from float64) float64 {
	for i := 0; i < len(pr.times); i++ {
		t := math.Max(pr.times[i], from)
		if i+1 < len(pr.times) && t >= pr.times[i+1] {
			continue
		}
		if pr.holds(procs, t, t+dur) {
			return t
		}
	}
	// After the last step everything is free.
	last := pr.times[len(pr.times)-1]
	return math.Max(last, from)
}

// holds reports whether procs processors are free during [a, b).
func (pr *profile) holds(procs int, a, b float64) bool {
	for i := 0; i < len(pr.times); i++ {
		end := math.Inf(1)
		if i+1 < len(pr.times) {
			end = pr.times[i+1]
		}
		if end <= a || pr.times[i] >= b {
			continue
		}
		if pr.avail[i] < procs {
			return false
		}
	}
	return true
}

// reserve subtracts procs from the profile during [a, b), splitting steps
// as needed.
func (pr *profile) reserve(procs int, a, b float64) {
	pr.split(a)
	pr.split(b)
	for i := 0; i < len(pr.times); i++ {
		end := math.Inf(1)
		if i+1 < len(pr.times) {
			end = pr.times[i+1]
		}
		if pr.times[i] >= a && end <= b {
			pr.avail[i] -= procs
		}
	}
}

// split inserts a step boundary at t if inside the profile's range.
func (pr *profile) split(t float64) {
	if math.IsInf(t, 1) {
		return
	}
	i := sort.SearchFloat64s(pr.times, t)
	if i < len(pr.times) && pr.times[i] == t {
		return
	}
	if i == 0 {
		// Before the profile starts: extend with full capacity? Cannot
		// happen: reservations never start before pr.times[0] (= now).
		return
	}
	if i == len(pr.times) {
		pr.times = append(pr.times, t)
		pr.avail = append(pr.avail, pr.avail[len(pr.avail)-1])
		return
	}
	pr.times = append(pr.times, 0)
	copy(pr.times[i+1:], pr.times[i:])
	pr.times[i] = t
	pr.avail = append(pr.avail, 0)
	copy(pr.avail[i+1:], pr.avail[i:])
	pr.avail[i] = pr.avail[i-1]
}
