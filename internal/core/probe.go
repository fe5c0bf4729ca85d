package core

import (
	"locmps/internal/model"
	"locmps/internal/par"
	"locmps/internal/redist"
	"locmps/internal/schedule"
)

// This file implements concurrent candidate probing: the fan-out of one
// task's candidate-slot scan (place) over a bounded worker pool. The chart
// is immutable while a task is being probed, so any number of workers may
// evaluate tryAt at different slot times concurrently — provided each owns
// the state a probe mutates. probeCtx is exactly that state; the serial
// scan threads one over the scratch's own buffers, and each probe worker
// gets an arena-backed one.
//
// Bit-identity: the serial scan's winner is a left fold over the candidate
// slots in ascending time order — "stop when tau + et·minF can no longer
// beat the best, keep an attempt when it beats the best by more than Eps".
// Because every valid attempt at time tau finishes no earlier than
// tau + et·minF, slots past the serial stopping point can never improve
// the fold. probeTail therefore evaluates batches of slots concurrently
// and replays the identical fold over the results in slot order,
// discarding whatever lies past the stop — the same winner, bit for bit,
// as the serial walk, no matter how many extra slots the batch evaluated.

// probeSerialSpan is the number of candidate slots place evaluates serially
// before handing a still-live scan to the probe pool. Measured scans at low
// CCR finish in one or two probes; only the long tails (deep backfill
// walks, high-CCR charts) survive past the prefix, and those are the scans
// worth paying the fan-out overhead for.
const probeSerialSpan = 2

// probeBatchPerWorker sizes each fan-out batch as a multiple of the worker
// count: large enough to keep every worker busy per round, small enough to
// bound the slots evaluated beyond the serial stopping point.
const probeBatchPerWorker = 2

// probeCtx bundles everything one candidate probe mutates: the resumable
// per-processor chart cursors, the free-list and subset buffers, the
// per-task ct memo, the cost-cache levels and the redistribution cost
// buffer. tryAt/timeOn/edgeCost write only through their probeCtx, never
// through the scratch directly, so probes against the same immutable chart
// are race-free whenever their contexts are disjoint.
type probeCtx struct {
	cur   []int
	free  []freeProc
	procs []int
	ct    *ctMemo
	costs *costCache // writable L1
	// costRead is an optional read-only level behind costs: the serial
	// scan's cache, frozen while a fan-out is in flight (nil on the serial
	// path, whose own L1 it is).
	costRead   *costCache
	costShared *costCache // read-only cross-worker snapshot (L2)
	costBuf    *redist.CostBuffer
}

// ctMemo memoizes the tau-independent communication charges of the
// processor subsets recently probed for the task being placed; the
// fixed-point rounds alternate between a few subsets, so a handful of
// slots captures nearly every repeat. Probes write its slots, so the
// serial scan and every probe arena own one each.
type ctMemo struct {
	procs [32][]int
	hash  [32]uint64
	comm  [32][]float64
	max   [32]float64
	sum   [32]float64
	rct   [32]float64
	count int
	next  int
}

func (m *ctMemo) reset() { m.count, m.next = 0, 0 }

// probeArena is one probe worker's private state. Arenas live on the
// scratch and are recycled with it, so their content-keyed cost caches and
// sized buffers stay warm across runs exactly like the scratch's own —
// sync.Pool discipline survives the fan-out.
type probeArena struct {
	pc      probeCtx
	ct      ctMemo
	costs   costCache
	costBuf *redist.CostBuffer
	costP   int
}

// begin prepares the arena for one (task, width) scan: cursors reset to
// unprobed, ct memo cleared, cost buffer sized for the cluster and stamped
// with the search's share token, cache levels wired — the arena's private
// L1 in front of the serial scan's cache and the shared L2 snapshot.
func (a *probeArena) begin(e *placer) {
	p := e.cluster.P
	a.pc.cur = resetIntsTo(a.pc.cur, p, -1)
	a.ct.reset()
	a.pc.ct = &a.ct
	if a.costBuf == nil || a.costP < p {
		a.costBuf = redist.NewCostBuffer(p)
		a.costP = p
	}
	if e.shareToken != 0 {
		// Share-cache entries are content-keyed (never wrong), so skipping
		// the stamp outside recorded searches just lets warm entries linger
		// instead of dropping them every scan.
		a.costBuf.SetShareEpoch(e.shareToken)
	}
	a.pc.costBuf = a.costBuf
	a.pc.costs = &a.costs
	a.pc.costRead = &e.sc.costCache
	a.pc.costShared = e.sc.costShared
}

// probeResult is one candidate slot's outcome, detached from the
// evaluating arena's reusable buffers so the serial fold can read every
// batch entry after the workers have moved on to later slots.
type probeResult struct {
	att   attempt
	ok    bool
	procs []int
	comm  []float64
}

// capture copies att into the result's own backing arrays.
func (r *probeResult) capture(att attempt) {
	r.procs = append(r.procs[:0], att.procs...)
	r.comm = append(r.comm[:0], att.comm...)
	att.procs, att.comm = r.procs, r.comm
	r.att = att
}

// serialProbeCtx wires the scratch's own buffers into the probe context the
// serial scan threads through tryAt; syncSerialProbeCtx writes the (possibly
// regrown) slices back so the pool keeps their capacity.
func (sc *placerScratch) serialProbeCtx() *probeCtx {
	sc.serial = probeCtx{
		cur:        sc.posBuf,
		free:       sc.freeBuf,
		procs:      sc.procBuf,
		ct:         &sc.ct,
		costs:      &sc.costCache,
		costShared: sc.costShared,
		costBuf:    sc.costBuf,
	}
	return &sc.serial
}

func (sc *placerScratch) syncSerialProbeCtx(pc *probeCtx) {
	sc.posBuf, sc.freeBuf, sc.procBuf = pc.cur, pc.free, pc.procs
}

// probeArenas returns workers arenas, growing the scratch's set on first
// use at this width.
func (sc *placerScratch) probeArenas(workers int) []probeArena {
	for len(sc.arenas) < workers {
		sc.arenas = append(sc.arenas, probeArena{})
	}
	return sc.arenas[:workers]
}

// probeResults returns n result slots, preserving the per-slot backing
// arrays of previous batches across growth.
func (sc *placerScratch) probeResults(n int) []probeResult {
	if cap(sc.probeRes) < n {
		grown := make([]probeResult, n)
		copy(grown, sc.probeRes[:cap(sc.probeRes)])
		sc.probeRes = grown
	}
	sc.probeRes = sc.probeRes[:n]
	return sc.probeRes
}

// probeTail continues one width's candidate-slot scan on the probe pool,
// starting at the not-yet-evaluated slot time tau (with idx the boundary
// cursor past it, exactly as the serial loop left them). Slots are handed
// to workers in batches; each batch is evaluated concurrently against the
// immutable chart and then folded serially in ascending slot order under
// the scan's exact improvement and stopping rules, so the returned
// best/bestOK are bit-identical to finishing the scan serially.
//
// par.ForWorker hands ascending indices to each worker, and batches only
// ever move forward in time, so every arena's chart cursors see a
// monotonically non-decreasing slot sequence — the same invariant the
// serial scan's resumable cursors rely on.
func (e *placer) probeTail(tp int, tau float64, idx int, n int, et, etFastest float64, parents []model.AdjEdge, maxParentFt float64, best attempt, bestOK bool) (attempt, bool, error) {
	sc := e.sc
	ends := sc.chart.ends
	workers := e.probeWorkers
	arenas := sc.probeArenas(workers)
	for w := range arenas {
		arenas[w].begin(e)
	}
	sc.lastProbeFanouts++
	batch := workers * probeBatchPerWorker

	taus := sc.tauBuf[:0]
	defer func() { sc.tauBuf = taus[:0] }()
	have := true // tau holds the next unevaluated slot time
	for have {
		taus = taus[:0]
		for have && len(taus) < batch {
			taus = append(taus, tau)
			for idx < len(ends) && ends[idx] <= tau {
				idx++
			}
			if idx == len(ends) {
				have = false
			} else {
				tau = ends[idx]
				idx++
			}
		}
		if len(taus) == 0 {
			break
		}
		res := sc.probeResults(len(taus))
		err := par.ForWorker(workers, len(taus), func(w, i int) error {
			a := &arenas[w]
			att, ok, err := e.tryAt(&a.pc, tp, taus[i], n, et, parents, maxParentFt)
			if err != nil {
				return err
			}
			res[i].ok = ok
			if ok {
				res[i].capture(att)
			}
			return nil
		})
		if err != nil {
			return attempt{}, false, err
		}
		sc.lastProbeSlots += len(taus)
		// The serial fold: identical rules, ascending slot order. Slots past
		// the stopping point were evaluated for nothing — that waste is
		// bounded by one batch and is the price of the parallel round.
		for i := range res {
			if bestOK && taus[i]+etFastest >= best.finish {
				return best, bestOK, nil
			}
			r := &res[i]
			if r.ok && (!bestOK || r.att.finish < best.finish-schedule.Eps) {
				sc.bestProcs = append(sc.bestProcs[:0], r.att.procs...)
				sc.bestComm = append(sc.bestComm[:0], r.att.comm...)
				best = r.att
				best.procs, best.comm = sc.bestProcs, sc.bestComm
				bestOK = true
			}
		}
	}
	return best, bestOK, nil
}
