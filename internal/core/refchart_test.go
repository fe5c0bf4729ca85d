package core

// The busy-list resource chart that the availability profile replaced,
// kept as a test oracle that shares no code with the profile: each
// processor holds its sorted busy intervals, a free probe binary-searches
// them, and the candidate slot times are a sorted multiset of interval ends
// (backfill) or processor frontiers (no backfill). chart_test.go checks the
// profile's answers against it.

import (
	"math"
	"sort"
)

// refInterval is a half-open busy span [start, end).
type refInterval struct {
	start, end float64
}

// refChart is the 2-D (time x processor) resource chart that backfilling packs
// (paper §III.F). It tracks, per processor, the sorted list of busy
// intervals. The no-backfill variant only consults the frontier (the end of
// the last busy interval), deliberately ignoring interior holes.
type refChart struct {
	p        int
	backfill bool
	busy     [][]refInterval
	// ends is the sorted multiset of candidate slot boundaries, maintained
	// incrementally by reserve: every busy-interval end in backfill mode,
	// or one entry per processor (its frontier) in no-backfill mode. It
	// lets candidateTimes answer with a binary search instead of sorting
	// all boundaries on every query.
	ends []float64
	// rec enables the undo log: every reserve appends one refOp so a
	// later rollback can peel reservations off in reverse order, restoring
	// the chart to any recorded mark without a full reset + replay. The
	// incremental LoCBS resume path uses this to truncate the chart back to
	// the last placement step shared with the previous run.
	rec bool
	log []refOp
	// rebuildOK records that the chart was empty when recording started, so
	// rolling back to a mark may equivalently rebuild from empty by replaying
	// the kept log prefix — cheaper whenever the prefix is the short side.
	// Pre-log reservations (presets) make a rebuild lossy, so they clear it.
	rebuildOK bool
}

// refOp is the undo/redo record of one reserve call: the interval, where
// it was inserted, plus the boundary-multiset edits that accompanied it.
// Keeping the interval itself makes the log replayable forward, so rollback
// can rebuild a short kept prefix instead of popping a long discarded suffix.
type refOp struct {
	proc int32
	pos  int32 // insertion index in busy[proc]
	// ins/rem flag the ends-multiset edits: backfill inserts the interval
	// end; no-backfill may replace the old frontier with the new one.
	ins, rem   bool
	insV, remV float64
	start, end float64 // the reserved interval (for forward replay)
}

func newRefChart(p int, backfill bool) *refChart {
	c := &refChart{}
	c.reset(p, backfill)
	return c
}

// reset re-targets the chart at p empty processors, reusing the per-
// processor interval slices so pooled LoCBS runs allocate nothing here.
func (c *refChart) reset(p int, backfill bool) {
	c.p, c.backfill = p, backfill
	if cap(c.busy) < p {
		c.busy = make([][]refInterval, p)
	} else {
		c.busy = c.busy[:p]
	}
	for i := range c.busy {
		c.busy[i] = c.busy[i][:0]
	}
	c.ends = c.ends[:0]
	c.rec = false
	c.log = c.log[:0]
	c.rebuildOK = false
	if !backfill {
		// Every processor starts with frontier 0.
		for i := 0; i < p; i++ {
			c.ends = append(c.ends, 0)
		}
	}
}

// reserve books [start, end) on processor proc. Caller guarantees the span
// is free (the placement loop only reserves spans it has verified).
func (c *refChart) reserve(proc int, start, end float64) {
	if end <= start {
		return
	}
	iv := refInterval{start, end}
	list := c.busy[proc]
	oldF := 0.0
	if len(list) > 0 {
		oldF = list[len(list)-1].end
	}
	// Most reservations extend the frontier, so scan from the tail.
	pos := len(list)
	for pos > 0 && list[pos-1].start >= iv.start {
		pos--
	}
	list = append(list, refInterval{})
	copy(list[pos+1:], list[pos:])
	list[pos] = iv
	c.busy[proc] = list
	op := refOp{proc: int32(proc), pos: int32(pos), start: start, end: end}
	if c.backfill {
		c.insertEnd(end)
		op.ins, op.insV = true, end
	} else if newF := list[len(list)-1].end; newF != oldF {
		c.removeEnd(oldF)
		c.insertEnd(newF)
		op.rem, op.remV = true, oldF
		op.ins, op.insV = true, newF
	}
	if c.rec {
		c.log = append(c.log, op)
	}
}

// record switches the undo log on, noting whether the chart is still empty
// (no preset reservations) so rollback may take the rebuild shortcut.
func (c *refChart) record() {
	c.rec = true
	c.rebuildOK = true
	for _, list := range c.busy {
		if len(list) > 0 {
			c.rebuildOK = false
			break
		}
	}
}

// mark returns the current undo-log position; rollback(mark()) is a no-op.
func (c *refChart) mark() int { return len(c.log) }

// rollback undoes every reservation recorded after mark, newest first, so
// the chart (busy lists and the ends multiset) is restored bit-for-bit to
// its state when mark was taken. Cost is O(ops undone) plus the interval
// shifts inside the touched busy lists — independent of the chart's total
// population, which is what makes prefix-resumed placements cheap. When the
// kept prefix is the short side (an early divergence discarding most of the
// chart) and nothing predates the log, it rebuilds forward instead.
func (c *refChart) rollback(mark int) {
	if c.rebuildOK && 2*mark < len(c.log) {
		c.rebuild(mark)
		return
	}
	for len(c.log) > mark {
		op := c.log[len(c.log)-1]
		c.log = c.log[:len(c.log)-1]
		if op.ins {
			c.removeEnd(op.insV)
		}
		if op.rem {
			c.insertEnd(op.remV)
		}
		list := c.busy[op.proc]
		copy(list[op.pos:], list[op.pos+1:])
		c.busy[op.proc] = list[:len(list)-1]
	}
}

// rebuild clears the chart and replays the first mark ops of the log in
// order. Insertion positions recorded at reserve time are valid again when
// the ops rerun in the same order from the same empty state, so the result
// is bit-identical to popping the suffix.
func (c *refChart) rebuild(mark int) {
	for i := range c.busy {
		c.busy[i] = c.busy[i][:0]
	}
	c.ends = c.ends[:0]
	if !c.backfill {
		for i := 0; i < c.p; i++ {
			c.ends = append(c.ends, 0)
		}
	}
	for _, op := range c.log[:mark] {
		list := c.busy[op.proc]
		list = append(list, refInterval{})
		copy(list[op.pos+1:], list[op.pos:])
		list[op.pos] = refInterval{op.start, op.end}
		c.busy[op.proc] = list
		if op.rem {
			c.removeEnd(op.remV)
		}
		if op.ins {
			c.insertEnd(op.insV)
		}
	}
	c.log = c.log[:mark]
}

func (c *refChart) insertEnd(v float64) {
	// Boundaries mostly arrive in increasing order (the frontier grows),
	// so scan from the tail; any insertion point keeps the multiset sorted.
	pos := len(c.ends)
	for pos > 0 && c.ends[pos-1] > v {
		pos--
	}
	c.ends = append(c.ends, 0)
	copy(c.ends[pos+1:], c.ends[pos:])
	c.ends[pos] = v
}

func (c *refChart) removeEnd(v float64) {
	pos := sort.SearchFloat64s(c.ends, v)
	c.ends = append(c.ends[:pos], c.ends[pos+1:]...)
}

// frontier returns the end of the last busy interval on proc (0 if idle).
func (c *refChart) frontier(proc int) float64 {
	list := c.busy[proc]
	if len(list) == 0 {
		return 0
	}
	return list[len(list)-1].end
}

// freeAt reports whether proc is idle at time t and, if so, until when
// (the start of the next busy interval, or +Inf). In no-backfill mode a
// processor is only "free" from its frontier onward.
func (c *refChart) freeAt(proc int, t float64) (until float64, free bool) {
	k := -1
	return c.idleUntil(proc, t, &k)
}

// idleUntil is freeAt with a resumable busy-list cursor: *k is the index of
// the first interval starting after the previous probe's time, or -1 for an
// unprobed processor, whose first probe binary-searches instead of scanning
// the whole list (tasks place late, lists are deep). Probe times for one
// cursor must not decrease. The no-backfill test reads only the frontier
// and leaves the cursor alone.
func (c *refChart) idleUntil(proc int, t float64, k *int) (until float64, free bool) {
	if !c.backfill {
		if t < c.frontier(proc)-1e-12 {
			return 0, false
		}
		return math.Inf(1), true
	}
	list := c.busy[proc]
	// First interval with start > t.
	i := *k
	if i < 0 {
		lo, hi := 0, len(list)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); list[mid].start <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i = lo
	} else {
		for i < len(list) && list[i].start <= t {
			i++
		}
	}
	*k = i
	if i > 0 && list[i-1].end > t+1e-12 {
		return 0, false // inside the previous interval
	}
	if i == len(list) {
		return math.Inf(1), true
	}
	return list[i].start, true
}

// candidateTimes returns the sorted distinct times >= est at which the set
// of free processors can change: est itself plus every busy-interval end
// (backfill) or every frontier (no-backfill). These are the only start
// times a minimum-finish-time search needs to probe. The result is appended
// into buf, which may be nil. The boundaries are kept sorted by reserve, so
// a query is one binary search plus a deduplicating copy.
func (c *refChart) candidateTimes(est float64, buf []float64) []float64 {
	out := append(buf[:0], est)
	pos := sort.SearchFloat64s(c.ends, est)
	for _, t := range c.ends[pos:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}
