// Package audit is a strict, scheduler-independent oracle for finished
// schedules. Where schedule.Validate performs the cheap sanity checks the
// schedulers themselves rely on, the auditor re-derives every invariant of
// the paper's model (§II-§III) from first principles, recomputing
// redistribution times with internal/redist rather than trusting the
// charges the scheduler recorded:
//
//   - placement: every task placed on distinct in-range processors, with
//     Finish-Start equal to et(t, np) and DataReady <= Start;
//   - allocation: 1 <= np <= P always; np > Pbest(t, P) is reported as a
//     warning (a violation under Options.EnforcePbest), since DATA and
//     edge-widening legitimately over-allocate;
//   - exclusivity: no processor serves two tasks at overlapping times,
//     where on non-overlap clusters a task occupies its processors from
//     Start-CommTime (incoming redistribution blocks the receiving group);
//   - precedence + redistribution: for every edge u->v,
//     st(v) >= ft(u) + cost(e), with cost recomputed from the block-cyclic
//     transfer matrix of the actual placements;
//   - single-port serialization: every recomputed transfer fits its time
//     window, per-receiver redistribution work fits inside CommTime on
//     non-overlap clusters, and cross-transfer port demand is checked with
//     an interval (Hall-style) argument — reported as a warning by default
//     because the paper's cost model is contention-oblivious across
//     distinct transfers, and as a violation under Options.StrictPorts;
//   - makespan accounting: Makespan == max Finish;
//   - lower bounds: Makespan >= max(critical path under infinite
//     processors, total work / P);
//   - accounting (Options.RequireAccounting): the per-edge charges the
//     scheduler recorded match the recomputed costs, and CommTime
//     aggregates them the way the cluster's overlap mode dictates.
package audit

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/redist"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
)

// Class partitions violations by the invariant they break.
type Class string

const (
	ClassPlacement  Class = "placement"
	ClassAllocation Class = "allocation"
	ClassExclusive  Class = "exclusivity"
	ClassPrecedence Class = "precedence"
	ClassSinglePort Class = "single-port"
	ClassMakespan   Class = "makespan"
	ClassLowerBound Class = "lower-bound"
	ClassAccounting Class = "accounting"
)

// DefaultBlockBytes mirrors core.DefaultBlockBytes so that auditing a
// schedule produced with a default core.Config recomputes identical
// redistribution costs. (The value is duplicated rather than imported to
// keep the oracle free of any dependency on the code under test.)
const DefaultBlockBytes = 64 * 1024

// Violation is one broken invariant.
type Violation struct {
	Class Class
	// Task and Edge locate the violation when applicable; -1 otherwise.
	// Edge refers to the task graph's dense edge id.
	Task, Edge int
	Msg        string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Class, v.Msg) }

// Options tune the strictness of the audit.
type Options struct {
	// BlockBytes is the block-cyclic block size used to recompute
	// redistribution costs; 0 selects DefaultBlockBytes. It must match the
	// configuration the schedule was produced with.
	BlockBytes float64
	// Tol is the relative comparison tolerance; 0 selects schedule.Eps.
	Tol float64
	// RequireAccounting additionally checks the scheduler's recorded
	// per-edge charges and CommTime aggregation against recomputed costs.
	// Leave false for schedulers that do not record charges (e.g. OPT).
	RequireAccounting bool
	// StrictPorts escalates cross-transfer port-contention findings from
	// warnings to violations. The paper's cost model prices each transfer
	// in isolation, so genuine schedules can fail the strict check.
	StrictPorts bool
	// EnforcePbest escalates np > Pbest(t, P) from a warning to a
	// violation. DATA and LoCBS edge-widening allocate past Pbest by
	// design, so this is off by default.
	EnforcePbest bool
}

func (o Options) withDefaults() Options {
	if o.BlockBytes == 0 {
		o.BlockBytes = DefaultBlockBytes
	}
	if o.Tol == 0 {
		o.Tol = schedule.Eps
	}
	return o
}

// Report is the outcome of an audit: hard violations, advisory warnings,
// and the recomputed quantities the checks were made against.
type Report struct {
	Violations []Violation
	Warnings   []Violation
	// LowerBound is max(critical path under infinite processors,
	// total work / P).
	LowerBound float64
	// MaxFinish is the recomputed makespan.
	MaxFinish float64
}

// Err returns nil when the audit found no violations, and an error
// summarizing them otherwise. Warnings never produce an error.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return errors.New("audit: " + fmt.Sprintf("%d violation(s): ", len(r.Violations)) + joinLimited(msgs, 5))
}

func joinLimited(msgs []string, limit int) string {
	if len(msgs) > limit {
		return fmt.Sprintf("%s; ... and %d more", joinLimited(msgs[:limit], limit), len(msgs)-limit)
	}
	out := ""
	for i, m := range msgs {
		if i > 0 {
			out += "; "
		}
		out += m
	}
	return out
}

func (r *Report) add(c Class, task, edge int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Class: c, Task: task, Edge: edge, Msg: fmt.Sprintf(format, args...)})
}

func (r *Report) warn(c Class, task, edge int, format string, args ...any) {
	r.Warnings = append(r.Warnings, Violation{Class: c, Task: task, Edge: edge, Msg: fmt.Sprintf(format, args...)})
}

// rel is the comparison slack for a quantity of the given magnitude.
func rel(tol, x float64) float64 { return tol * (1 + math.Abs(x)) }

// Check audits the schedule against the task graph. It never mutates its
// arguments and shares no code with the schedulers it checks beyond the
// redistribution model itself.
func Check(tg *model.TaskGraph, s *schedule.Schedule, opt Options) *Report {
	opt = opt.withDefaults()
	tol := opt.Tol
	r := &Report{}
	if len(s.Placements) != tg.N() {
		r.add(ClassPlacement, -1, -1, "%d placements for %d tasks", len(s.Placements), tg.N())
		return r
	}
	if err := s.Cluster.Validate(); err != nil {
		r.add(ClassPlacement, -1, -1, "invalid cluster: %v", err)
		return r
	}
	P := s.Cluster.P
	rm := redist.Model{BlockBytes: opt.BlockBytes, Bandwidth: s.Cluster.Bandwidth}

	placed := make([]bool, tg.N())
	checkPlacements(tg, s, opt, r, placed)
	checkExclusivity(tg, s, tol, r, placed)
	checkPrecedence(tg, s, rm, opt, r, placed)
	checkPorts(tg, s, rm, opt, r, placed)

	// Makespan accounting: the recorded makespan must equal the latest
	// finish time over all placed tasks.
	var maxFinish float64
	for t, pl := range s.Placements {
		if placed[t] && pl.Finish > maxFinish {
			maxFinish = pl.Finish
		}
	}
	r.MaxFinish = maxFinish
	if math.Abs(s.Makespan-maxFinish) > rel(tol, maxFinish) {
		r.add(ClassMakespan, -1, -1, "recorded makespan %v != max finish %v", s.Makespan, maxFinish)
	}

	// Lower-bound sanity: no schedule can beat the critical path under
	// infinite processors (every task at its best-possible time, zero
	// communication) or the total-work bound Σ_t min_p p*et(t,p) / P.
	var area float64
	minEt := make([]float64, tg.N())
	for t := 0; t < tg.N(); t++ {
		best := math.Inf(1)
		bestArea := math.Inf(1)
		for p := 1; p <= P; p++ {
			et := tg.ExecTime(t, p)
			if et < best {
				best = et
			}
			if a := float64(p) * et; a < bestArea {
				bestArea = a
			}
		}
		minEt[t] = best
		area += bestArea
	}
	cpInf, _, err := graph.CriticalPath(tg.DAG(),
		func(v int) float64 { return minEt[v] },
		func(u, v int) float64 { return 0 })
	if err != nil {
		r.add(ClassLowerBound, -1, -1, "critical path: %v", err)
		cpInf = 0
	}
	lb := cpInf
	if a := area / float64(P); a > lb {
		lb = a
	}
	r.LowerBound = lb
	if allPlaced(placed) && maxFinish+rel(tol, lb) < lb {
		r.add(ClassLowerBound, -1, -1, "makespan %v beats lower bound %v (cpInf=%v, area/P=%v)",
			maxFinish, lb, cpInf, area/float64(P))
	}
	return r
}

func allPlaced(placed []bool) bool {
	for _, ok := range placed {
		if !ok {
			return false
		}
	}
	return true
}

// checkPlacements verifies per-task structural invariants and marks the
// tasks whose placements are sound enough for the cross-task checks.
func checkPlacements(tg *model.TaskGraph, s *schedule.Schedule, opt Options, r *Report, placed []bool) {
	tol := opt.Tol
	P := s.Cluster.P
	for t, pl := range s.Placements {
		if pl.NP() == 0 {
			r.add(ClassPlacement, t, -1, "task %d (%s) not placed", t, tg.Tasks[t].Name)
			continue
		}
		ok := true
		if pl.NP() > P {
			r.add(ClassAllocation, t, -1, "task %d allocated %d > P=%d processors", t, pl.NP(), P)
			ok = false
		}
		seen := make(map[int]struct{}, pl.NP())
		for _, proc := range pl.Procs {
			if proc < 0 || proc >= P {
				r.add(ClassAllocation, t, -1, "task %d on processor %d outside [0,%d)", t, proc, P)
				ok = false
			}
			if _, dup := seen[proc]; dup {
				r.add(ClassPlacement, t, -1, "task %d lists processor %d twice", t, proc)
				ok = false
			}
			seen[proc] = struct{}{}
		}
		if pbest := speedup.Pbest(tg.Tasks[t].Profile, P); pl.NP() > pbest {
			if opt.EnforcePbest {
				r.add(ClassAllocation, t, -1, "task %d allocated %d > Pbest=%d processors", t, pl.NP(), pbest)
			} else {
				r.warn(ClassAllocation, t, -1, "task %d allocated %d > Pbest=%d processors", t, pl.NP(), pbest)
			}
		}
		if pl.Start < -tol {
			r.add(ClassPlacement, t, -1, "task %d starts at negative time %v", t, pl.Start)
			ok = false
		}
		if pl.NP() <= P {
			et := tg.ExecTime(t, pl.NP())
			if math.Abs(pl.Finish-pl.Start-et) > rel(tol, et) {
				r.add(ClassPlacement, t, -1, "task %d duration %v != et(%d)=%v",
					t, pl.Finish-pl.Start, pl.NP(), et)
				ok = false
			}
		}
		if pl.DataReady > pl.Start+rel(tol, pl.Start) {
			r.add(ClassPlacement, t, -1, "task %d data-ready %v after start %v", t, pl.DataReady, pl.Start)
		}
		if pl.CommTime < -tol {
			r.add(ClassPlacement, t, -1, "task %d negative comm time %v", t, pl.CommTime)
		}
		placed[t] = ok
	}
}

// checkExclusivity verifies that no processor serves two tasks at once. On
// non-overlap clusters a task's incoming redistribution occupies its
// processor group for CommTime before Start (LoCBS reserves the chart from
// Start-CommTime), so occupancy spans are widened accordingly.
func checkExclusivity(tg *model.TaskGraph, s *schedule.Schedule, tol float64, r *Report, placed []bool) {
	type span struct {
		task        int
		start, stop float64
	}
	perProc := make([][]span, s.Cluster.P)
	for t, pl := range s.Placements {
		if !placed[t] {
			continue
		}
		occupy := pl.Start
		if !s.Cluster.Overlap && pl.CommTime > 0 {
			occupy -= pl.CommTime
		}
		for _, proc := range pl.Procs {
			perProc[proc] = append(perProc[proc], span{t, occupy, pl.Finish})
		}
	}
	for proc, spans := range perProc {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].stop < spans[j].stop
		})
		for i := 1; i < len(spans); i++ {
			prev, cur := spans[i-1], spans[i]
			if cur.start < prev.stop-rel(tol, prev.stop) {
				r.add(ClassExclusive, cur.task, -1,
					"processor %d double-booked: task %d occupies [%v,%v) overlapping task %d [%v,%v)",
					proc, prev.task, prev.start, prev.stop, cur.task, cur.start, cur.stop)
			}
		}
	}
}

// checkPrecedence re-derives every edge's redistribution time from the
// actual placements and verifies st(child) >= ft(parent) + cost(e). This is
// the check schedule.Validate historically omitted the cost term from.
// Under Options.RequireAccounting the recorded per-edge charges and the
// CommTime aggregation are verified as well.
func checkPrecedence(tg *model.TaskGraph, s *schedule.Schedule, rm redist.Model, opt Options, r *Report, placed []bool) {
	tol := opt.Tol
	// commAgg[t] accumulates recomputed incoming costs for the CommTime
	// accounting check: sum on non-overlap clusters, max on overlap ones.
	commAgg := make([]float64, tg.N())
	for id, e := range tg.Edges() {
		if !placed[e.From] || !placed[e.To] {
			continue
		}
		pu, pv := s.Placements[e.From], s.Placements[e.To]
		cost, err := rm.Cost(e.Volume, pu.Procs, pv.Procs)
		if err != nil {
			r.add(ClassPrecedence, e.To, id, "edge %d->%d: cost recomputation failed: %v", e.From, e.To, err)
			continue
		}
		need := pu.Finish + cost
		if pv.Start < need-rel(tol, need) {
			r.add(ClassPrecedence, e.To, id,
				"edge %d->%d violated: child starts %v < parent finish %v + redistribution %v",
				e.From, e.To, pv.Start, pu.Finish, cost)
		}
		if s.Cluster.Overlap {
			if cost > commAgg[e.To] {
				commAgg[e.To] = cost
			}
		} else {
			commAgg[e.To] += cost
		}
		if opt.RequireAccounting {
			if got := s.CommID(id); math.Abs(got-cost) > rel(tol, cost) {
				r.add(ClassAccounting, e.To, id,
					"edge %d->%d: recorded charge %v != recomputed cost %v", e.From, e.To, got, cost)
			}
		}
	}
	if opt.RequireAccounting {
		for t, pl := range s.Placements {
			if !placed[t] {
				continue
			}
			if math.Abs(pl.CommTime-commAgg[t]) > rel(tol, commAgg[t]) {
				r.add(ClassAccounting, t, -1,
					"task %d comm time %v != aggregated incoming cost %v", t, pl.CommTime, commAgg[t])
			}
		}
	}
}

// portJob is one recomputed network transfer's demand on a single node's
// port: work units of busy time that must fit inside [release, deadline].
type portJob struct {
	edge              int
	release, deadline float64
	work              float64
}

// checkPorts verifies single-port feasibility of the recomputed transfers.
// Three levels:
//
//  1. per-edge: the transfer's optimal single-port time must fit its
//     window (a violation — the schedule charged less time than the
//     transfer needs even in isolation);
//  2. per-receiver budget (non-overlap clusters): the serialized incoming
//     work of a task on each of its nodes must fit inside CommTime;
//  3. cross-transfer: total port demand on any node over any interval
//     must fit the interval (Hall's condition for EDF feasibility of
//     preemptive jobs on one machine). The paper's model prices transfers
//     independently, so this is a warning unless Options.StrictPorts.
func checkPorts(tg *model.TaskGraph, s *schedule.Schedule, rm redist.Model, opt Options, r *Report, placed []bool) {
	tol := opt.Tol
	bw := rm.Bandwidth
	perNode := make(map[int][]portJob)
	type recvKey struct{ task, node int }
	recvWork := make(map[recvKey]float64)
	for id, e := range tg.Edges() {
		if !placed[e.From] || !placed[e.To] || e.Volume == 0 {
			continue
		}
		pu, pv := s.Placements[e.From], s.Placements[e.To]
		if slices.Equal(pu.Procs, pv.Procs) {
			continue // same layout: no network traffic by construction
		}
		mat, err := rm.TransferMatrix(e.Volume, pu.Procs, pv.Procs)
		if err != nil {
			continue // already reported by checkPrecedence
		}
		loads := mat.PortLoads()
		if len(loads) == 0 {
			continue // fully node-local redistribution
		}
		spt := rm.SinglePortTime(mat)
		// The transfer's time window: it cannot begin before the producer
		// finishes and must complete by the consumer's start. On
		// non-overlap clusters with a positive CommTime the window is the
		// charged communication slot [Start-CommTime, Start] instead —
		// that is when the receiving group is actually reserved.
		release, deadline := pu.Finish, pv.Start
		if !s.Cluster.Overlap && pv.CommTime > 0 {
			release = pv.Start - pv.CommTime
			if release < pu.Finish {
				release = pu.Finish
			}
		}
		window := deadline - release
		if spt > window+rel(tol, window) {
			r.add(ClassSinglePort, e.To, id,
				"edge %d->%d: single-port transfer time %v exceeds window [%v,%v] of length %v",
				e.From, e.To, spt, release, deadline, window)
		}
		for node, bytes := range loads {
			perNode[node] = append(perNode[node], portJob{id, release, deadline, bytes / bw})
		}
		if !s.Cluster.Overlap {
			for _, node := range pv.Procs {
				if bytes, ok := loads[node]; ok {
					recvWork[recvKey{e.To, node}] += bytes / bw
				}
			}
		}
	}
	// Per-receiver budget: on non-overlap clusters every byte a node of the
	// consumer group sends or receives for the task's incoming edges is
	// serialized through its single port inside the charged CommTime.
	for key, work := range recvWork {
		ct := s.Placements[key.task].CommTime
		if work > ct+rel(tol, ct) {
			r.add(ClassSinglePort, key.task, -1,
				"task %d: node %d port needs %v for incoming redistribution but CommTime is %v",
				key.task, key.node, work, ct)
		}
	}
	// Cross-transfer Hall check per node: for every pair of (release,
	// deadline) bounds, the jobs fully inside the interval must fit it.
	nodes := make([]int, 0, len(perNode))
	for node := range perNode {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		jobs := perNode[node]
		if lo, hi, demand, ok := hallViolation(jobs, tol); ok {
			msg := fmt.Sprintf(
				"node %d port overcommitted: transfers demand %v inside [%v,%v] of length %v",
				node, demand, lo, hi, hi-lo)
			if opt.StrictPorts {
				r.Violations = append(r.Violations, Violation{Class: ClassSinglePort, Task: -1, Edge: -1, Msg: msg})
			} else {
				r.Warnings = append(r.Warnings, Violation{Class: ClassSinglePort, Task: -1, Edge: -1, Msg: msg})
			}
		}
	}
}

// hallViolation scans all candidate intervals [a,b] with a a release and b
// a deadline and reports the first interval whose contained jobs demand
// more port time than the interval provides.
func hallViolation(jobs []portJob, tol float64) (lo, hi, demand float64, found bool) {
	for _, ja := range jobs {
		a := ja.release
		for _, jb := range jobs {
			b := jb.deadline
			if b <= a {
				continue
			}
			var sum float64
			for _, j := range jobs {
				if j.release >= a-rel(tol, a) && j.deadline <= b+rel(tol, b) {
					sum += j.work
				}
			}
			if sum > (b-a)+rel(tol, b-a) {
				return a, b, sum, true
			}
		}
	}
	return 0, 0, 0, false
}
