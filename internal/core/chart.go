// Package core implements the paper's contribution: the LoCBS locality
// conscious backfill scheduler (Algorithm 2) and the LoC-MPS iterative
// allocation-and-scheduling algorithm (Algorithm 1), plus the no-backfill
// variant evaluated in Figure 6 and the communication-blind configuration
// that reproduces the authors' earlier iCASLB algorithm.
package core

import (
	"math/bits"
	"slices"
)

// chart is the 2-D (time x processor) resource chart that backfilling packs
// (paper §III.F), held as one time-ordered availability profile. t holds
// the sorted distinct times at which some busy interval starts or ends, and
// boundary i owns 3w words of bits (w = ⌈P/64⌉): three processor bitsets,
//
//	busy:   processors busy on the segment [t[i], t[i+1]),
//	starts: processors with a busy interval starting at t[i],
//	ends:   processors with a busy interval ending at t[i].
//
// A slot query answers for every processor at once, a word at a time (see
// slotScan). The no-backfill variant reads only the ends, ignoring interior
// holes.
type chart struct {
	p, w     int
	backfill bool
	t        []float64
	bits     []uint64
	mask     []uint64 // the processor set of the reservation in progress
	// rec enables the undo log: every reserve appends one reserveOp (and
	// its processor set to logMasks) so a later rollback can peel
	// reservations off in reverse order, restoring the chart to any
	// recorded mark without a full reset + replay. The incremental LoCBS
	// resume path uses this to truncate the chart back to the last
	// placement step shared with the previous run.
	rec      bool
	log      []reserveOp
	logMasks []uint64 // op i's processor set is logMasks[w*i : w*(i+1)]
	// saved holds the words a logged op found already carrying some of its
	// processors' bits (intervals of one processor may overlap by up to
	// schedule.Eps); undoing the op clears its set and ORs these back.
	saved []savedWord
	// rebuildOK records that the chart was empty when recording started, so
	// rolling back to a mark may equivalently rebuild from empty by replaying
	// the kept log prefix — cheaper whenever the prefix is the short side.
	// Pre-log reservations (presets) make a rebuild lossy, so they clear it.
	rebuildOK bool
}

// reserveOp is the undo/redo record of one reserve call. Keeping the span
// makes the log replayable forward, so rollback can rebuild a short kept
// prefix instead of popping a long discarded suffix.
type reserveOp struct {
	start, end   float64
	lo, hi       int32 // boundary indices of start and end once applied
	newLo, newHi bool  // the op inserted that boundary
	saved        int32 // len(chart.saved) before the op
}

type savedWord struct {
	at   int32 // index into chart.bits
	bits uint64
}

func newChart(p int, backfill bool) *chart {
	c := &chart{}
	c.reset(p, backfill)
	return c
}

// reset re-targets the chart at p empty processors, reusing the profile's
// backing arrays so pooled LoCBS runs allocate nothing here.
func (c *chart) reset(p int, backfill bool) {
	c.p, c.w, c.backfill = p, (p+63)>>6, backfill
	c.t, c.bits = c.t[:0], c.bits[:0]
	c.mask = slices.Grow(c.mask[:0], c.w)[:c.w]
	c.rec = false
	c.log, c.logMasks, c.saved = c.log[:0], c.logMasks[:0], c.saved[:0]
	c.rebuildOK = false
}

// reserve books [start, end) on every listed processor. Caller guarantees
// the span is free (the placement loop only reserves spans it has
// verified); empty spans book nothing.
func (c *chart) reserve(start, end float64, procs ...int) {
	if end <= start {
		return
	}
	m := c.mask
	clear(m)
	for _, p := range procs {
		m[p>>6] |= 1 << (p & 63)
	}
	if !c.rec {
		c.apply(m, start, end)
		return
	}
	c.logMasks = append(c.logMasks, m...)
	c.log = append(c.log, c.apply(m, start, end))
}

// apply ORs the processor set m into the profile over [start, end).
func (c *chart) apply(m []uint64, start, end float64) reserveOp {
	op := reserveOp{start: start, end: end, saved: int32(len(c.saved))}
	lo, newLo := c.boundary(start)
	hi, newHi := c.boundary(end)
	op.lo, op.hi, op.newLo, op.newHi = int32(lo), int32(hi), newLo, newHi
	s := 3 * c.w
	c.set(lo*s+c.w, m)
	c.set(hi*s+2*c.w, m)
	for i := lo; i < hi; i++ {
		c.set(i*s, m)
	}
	return op
}

func (c *chart) set(at int, m []uint64) {
	words := c.bits[at : at+len(m)]
	for k, x := range m {
		if old := words[k] & x; old != 0 && c.rec {
			c.saved = append(c.saved, savedWord{int32(at + k), old})
		}
		words[k] |= x
	}
}

// boundary returns the index of boundary x, inserting it (with the busy
// set of the segment it splits) if absent.
func (c *chart) boundary(x float64) (int, bool) {
	n := len(c.t)
	i := n
	if n > 0 && c.t[n-1] >= x {
		i = c.seg(x)
		if i >= 0 && c.t[i] == x {
			return i, false
		}
		i++
	}
	s := 3 * c.w
	c.t = slices.Insert(c.t, i, x)
	old := len(c.bits)
	c.bits = slices.Grow(c.bits, s)[:old+s]
	copy(c.bits[(i+1)*s:], c.bits[i*s:old])
	row := c.bits[i*s : (i+1)*s]
	clear(row)
	if i > 0 {
		copy(row[:c.w], c.bits[(i-1)*s:])
	}
	return i, true
}

// seg returns the index of the last boundary at or before x, or -1.
func (c *chart) seg(x float64) int {
	lo, hi := 0, len(c.t)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); c.t[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

func (c *chart) busy(i int) []uint64   { s := 3 * c.w * i; return c.bits[s : s+c.w] }
func (c *chart) starts(i int) []uint64 { s := 3*c.w*i + c.w; return c.bits[s : s+c.w] }
func (c *chart) ends(i int) []uint64   { s := 3*c.w*i + 2*c.w; return c.bits[s : s+c.w] }

// record switches the undo log on, noting whether the chart is still empty
// (no preset reservations) so rollback may take the rebuild shortcut.
func (c *chart) record() {
	c.rec = true
	c.rebuildOK = len(c.t) == 0
}

// mark returns the current undo-log position; rollback(mark()) is a no-op.
func (c *chart) mark() int { return len(c.log) }

// rollback undoes every reservation recorded after mark, newest first, so
// the profile is restored bit-for-bit to its state when mark was taken.
// Cost is O(ops undone) plus the boundary shifts they cause — independent
// of how much of the chart stays, which is what makes prefix-resumed
// placements cheap. When the kept prefix is the short side (an early
// divergence discarding most of the chart) and nothing predates the log,
// it rebuilds forward instead.
func (c *chart) rollback(mark int) {
	if c.rebuildOK && 2*mark < len(c.log) {
		c.rebuild(mark)
		return
	}
	s := 3 * c.w
	for i := len(c.log) - 1; i >= mark; i-- {
		op, m := c.log[i], c.logMasks[i*c.w:(i+1)*c.w]
		lo, hi := int(op.lo), int(op.hi)
		unset(c.bits[lo*s+c.w:], m)
		unset(c.bits[hi*s+2*c.w:], m)
		for k := lo; k < hi; k++ {
			unset(c.bits[k*s:], m)
		}
		for _, sw := range c.saved[op.saved:] {
			c.bits[sw.at] |= sw.bits
		}
		c.saved = c.saved[:op.saved]
		// An op's own boundaries carried only its bits when it made them.
		if op.newHi {
			c.drop(hi)
		}
		if op.newLo {
			c.drop(lo)
		}
	}
	c.log, c.logMasks = c.log[:mark], c.logMasks[:mark*c.w]
}

func unset(words, m []uint64) {
	for k, x := range m {
		words[k] &^= x
	}
}

func (c *chart) drop(i int) {
	s := 3 * c.w
	c.t = slices.Delete(c.t, i, i+1)
	c.bits = slices.Delete(c.bits, i*s, (i+1)*s)
}

// rebuild clears the chart and replays the first mark ops of the log in
// order. Replaying the same ops from the same empty state is
// deterministic, so the result is bit-identical to popping the suffix.
func (c *chart) rebuild(mark int) {
	c.t, c.bits, c.saved = c.t[:0], c.bits[:0], c.saved[:0]
	for i := range c.log[:mark] {
		op := &c.log[i]
		*op = c.apply(c.logMasks[i*c.w:(i+1)*c.w], op.start, op.end)
	}
	c.log, c.logMasks = c.log[:mark], c.logMasks[:mark*c.w]
}

// slotScan evaluates the candidate slots of one placement against the
// chart, which does not change while the task is probed. The candidate
// start times are est plus every later distinct interval end (backfill) or
// processor frontier (no backfill). At a candidate time tau the scan holds
// avail, the processors whose idle slot at tau reaches a required end y,
// as a bitset with its population count free. Every comparison below is
// the one the busy-list chart made per processor (DESIGN.md §13), so the
// sets are exact.
type slotScan struct {
	c *chart
	// from is the first boundary after est. Without backfill, suf row r
	// is the OR of the ends of every boundary at or after from+r (a
	// processor's frontier is its latest end).
	from  int
	suf   []uint64
	avail []uint64
	free  int
	next  int      // first boundary whose starts are not yet removed from avail
	pick  []uint64 // tryAt's subset of avail
}

// reset points the scan at chart c for a placement whose data is ready at
// est and returns est's boundary index (its segment).
func (s *slotScan) reset(c *chart, est float64) int {
	s.c = c
	k := c.seg(est)
	s.from = k + 1
	s.avail = slices.Grow(s.avail[:0], c.w)[:c.w]
	s.pick = slices.Grow(s.pick[:0], c.w)[:c.w]
	if c.backfill {
		return k
	}
	w, rows := c.w, len(c.t)-s.from
	s.suf = slices.Grow(s.suf[:0], (rows+1)*w)[:(rows+1)*w]
	clear(s.suf[rows*w:])
	for r := rows - 1; r >= 0; r-- {
		e := c.ends(s.from + r)
		for j := range w {
			s.suf[r*w+j] = s.suf[(r+1)*w+j] | e[j]
		}
	}
	return k
}

// nextSlot returns the boundary index of the candidate time after the one
// at boundary k, or -1 when there is none.
func (s *slotScan) nextSlot(k int) int {
	c, w := s.c, s.c.w
	for i := k + 1; i < len(c.t); i++ {
		e := c.ends(i)
		if !c.backfill {
			// A frontier: some processor ends here and never later.
			r := (i - s.from + 1) * w
			for j := range w {
				if e[j]&^s.suf[r+j] != 0 {
					return i
				}
			}
			continue
		}
		for _, x := range e {
			if x != 0 {
				return i
			}
		}
	}
	return -1
}

// open sets avail to the processors idle at tau, whose segment is k.
// With backfill a processor is busy at tau when an interval with start
// <= tau ends after tau+1e-12. Without backfill it is busy when
// tau < frontier-1e-12, and its idle slot never ends.
func (s *slotScan) open(tau float64, k int) {
	c, a := s.c, s.avail
	if !c.backfill {
		m := k + 1
		for m < len(c.t) && !(tau < c.t[m]-1e-12) {
			m++
		}
		r := (m - s.from) * c.w
		for j := range a {
			a[j] = ^s.suf[r+j]
		}
		s.next = len(c.t)
	} else {
		for j := range a {
			a[j] = ^uint64(0)
		}
		u := tau + 1e-12
		j := k
		for j+1 < len(c.t) && c.t[j+1] <= u {
			j++
		}
		if j >= 0 {
			unset(a, c.busy(j))
		}
		if j > k {
			// Intervals start or end within 1e-12 after tau. A processor
			// with no start there is busy at tau iff it is busy past
			// tau+1e-12; one with a start there is busy iff it is busy at
			// tau and none of its intervals ends there.
			for x := range a {
				var st, en, at uint64
				for i := k + 1; i <= j; i++ {
					st |= c.starts(i)[x]
					en |= c.ends(i)[x]
				}
				if k >= 0 {
					at = c.busy(k)[x]
				}
				a[x] = ^(^a[x]&^st | at&st&^en)
			}
		}
		s.next = k + 1
	}
	if r := c.p & 63; r != 0 {
		a[len(a)-1] &= 1<<r - 1
	}
	s.free = 0
	for _, x := range a {
		s.free += bits.OnesCount64(x)
	}
}

// reach narrows avail to the processors whose idle slot at tau lasts until
// at least y: those with no interval starting in (tau, y). It reports
// whether at least n remain, stopping as soon as fewer do. Calls after
// one open narrow cumulatively, so a y below an earlier one changes
// nothing.
func (s *slotScan) reach(y float64, n int) bool {
	c, a := s.c, s.avail
	for ; s.free >= n && s.next < len(c.t) && c.t[s.next] < y; s.next++ {
		for j, x := range c.starts(s.next) {
			if hit := a[j] & x; hit != 0 {
				a[j] &^= hit
				s.free -= bits.OnesCount64(hit)
			}
		}
	}
	return s.free >= n
}

// has reports whether processor id is in avail.
func (s *slotScan) has(id int) bool { return s.avail[id>>6]&(1<<(id&63)) != 0 }
