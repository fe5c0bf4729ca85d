package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/speedup"
)

// draw is the randomness the chart generator consumes: a *rand.Rand in the
// property tests, fuzz bytes in FuzzChartProfile.
type draw interface {
	Intn(n int) int
	Float64() float64
}

// byteDraw reads draws off fuzz input; an exhausted input draws zeros.
type byteDraw []byte

func (b *byteDraw) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *byteDraw) Intn(n int) int { return int(b.next()) % n }

func (b *byteDraw) Float64() float64 { return float64(uint16(b.next())<<8|uint16(b.next())) / 65536 }

// profileProcs are the processor counts the profile tests cover: one
// processor, one bitset word just short of, at, and just past full, and
// two full words.
var profileProcs = []int{1, 63, 64, 65, 128}

// genChart draws the reservations of a chart the way LoCBS builds one. The
// presets come first, as runPlacer books them: Fixed placements clipped to
// start at their processor's BusyUntil, then the BusyUntil spans from
// zero. The placements follow, each a processor set sharing one span on a
// half-unit grid (so boundaries tie across processors), placed after every
// member's last interval: abutting it, overlapping a long one by less than
// Eps or by less than 1e-12, leaving a gap of less than 1e-12, or a
// wider one. One in eight spans is shorter than 1e-12. Each processor's
// intervals start and end in the same order, as LoCBS's spans of at least
// Eps do, and the ops are returned in time order per processor.
func genChart(d draw, p int) (presets, ops []shadowOp) {
	grid := func(hi int) float64 { return float64(d.Intn(2*hi)) / 2 }
	front := make([]float64, p) // end of each processor's last interval
	long := make([]bool, p)     // that interval may be overlapped
	var busy []shadowOp
	for proc := 0; proc < p; proc++ {
		bu := 0.0
		if d.Intn(3) == 0 {
			bu = grid(6)
		}
		if d.Intn(4) == 0 {
			start, end := grid(4), 0.0
			end = start + 1 + grid(6)
			if start = max(start, bu); end > start {
				presets = append(presets, shadowOp{[]int{proc}, start, end})
				front[proc], long[proc] = end, true
			}
		}
		if bu > 0 {
			busy = append(busy, shadowOp{[]int{proc}, 0, bu})
			front[proc], long[proc] = max(front[proc], bu), true
		}
	}
	presets = append(presets, busy...)
	for n := 2 + d.Intn(24+p/4); n > 0; n-- {
		var g []int
		switch d.Intn(3) {
		case 0:
			g = []int{d.Intn(p)}
		case 1:
			for proc := 0; proc < p; proc++ {
				if d.Intn(2) == 0 {
					g = append(g, proc)
				}
			}
		default:
			lo := d.Intn(p)
			for proc, hi := lo, min(p, lo+1+d.Intn(p)); proc < hi; proc++ {
				g = append(g, proc)
			}
		}
		if len(g) == 0 {
			continue
		}
		base, canOverlap := 0.0, true
		for _, proc := range g {
			base = max(base, front[proc])
			canOverlap = canOverlap && long[proc]
		}
		length := 0.5 + grid(3)
		if d.Intn(8) == 0 {
			length = 1e-13 + 9e-13*d.Float64()
			canOverlap = false
		} else if d.Intn(4) == 0 {
			length += schedule.Eps * (d.Float64() - 0.5)
		}
		start := base
		switch d.Intn(6) {
		case 0: // abut
		case 1:
			if canOverlap {
				start -= 0.99 * schedule.Eps * d.Float64()
			}
		case 2:
			if canOverlap {
				start -= 1e-12 * d.Float64()
			}
		case 3:
			start += 1e-12 * d.Float64()
		default:
			start += grid(3)
		}
		end := start + length
		if end <= start {
			continue
		}
		ops = append(ops, shadowOp{g, start, end})
		for _, proc := range g {
			front[proc], long[proc] = end, length >= 0.5
		}
	}
	return presets, ops
}

// buildCharts books the presets, switches recording on and books ops, on
// a fresh profile and a fresh reference chart alike.
func buildCharts(p int, backfill bool, presets, ops []shadowOp) (*chart, *refChart) {
	c, ref := newChart(p, backfill), newRefChart(p, backfill)
	for _, op := range presets {
		c.reserve(op.start, op.end, op.procs...)
		for _, proc := range op.procs {
			ref.reserve(proc, op.start, op.end)
		}
	}
	c.record()
	ref.record()
	for _, op := range ops {
		c.reserve(op.start, op.end, op.procs...)
		for _, proc := range op.procs {
			ref.reserve(proc, op.start, op.end)
		}
	}
	return c, ref
}

// drawEst picks a data-ready time: on the grid, on a boundary, or within
// 1e-12 below one.
func drawEst(d draw, c *chart) float64 {
	if len(c.t) == 0 || d.Intn(3) == 0 {
		return float64(d.Intn(24)) / 2
	}
	b := c.t[d.Intn(len(c.t))]
	if d.Intn(2) == 0 {
		b = max(0, b-1e-12*d.Float64())
	}
	return b
}

// drawET draws an execution time: zero, shorter than 1e-12, or a grid
// value that often lands exactly on, or within Eps of either side of, an
// idle-until boundary.
func drawET(d draw) float64 {
	switch d.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1e-12 * d.Float64()
	}
	et := 0.5 + float64(d.Intn(12))/2
	switch d.Intn(4) {
	case 0:
		et += schedule.Eps / 2
	case 1:
		et += 3 * schedule.Eps / 2
	}
	return et
}

// checkSlots compares the profile's slot scan with the reference chart:
// the candidate start times from est, and at each of them the set of
// processors idle there until at least tau+et-Eps (the reference's
// idleUntil plus tryAt's until >= need-Eps test), for several et, plus the
// scan's early verdict that at least n such processors exist.
func checkSlots(t testing.TB, c *chart, ref *refChart, d draw, label string) {
	t.Helper()
	var s slotScan
	for q := 0; q < 3; q++ {
		est := drawEst(d, c)
		want := ref.candidateTimes(est, nil)
		k := s.reset(c, est)
		taus, ks := []float64{est}, []int{k}
		for k = s.nextSlot(k); k >= 0; k = s.nextSlot(k) {
			taus, ks = append(taus, c.t[k]), append(ks, k)
		}
		if len(taus) != len(want) {
			t.Fatalf("%s: est %v: candidate times %v, want %v", label, est, taus, want)
		}
		for i := range want {
			if taus[i] != want[i] {
				t.Fatalf("%s: est %v: candidate times %v, want %v", label, est, taus, want)
			}
		}
		for i, tau := range taus {
			for r := 0; r < 3; r++ {
				need := tau + drawET(d)
				y := need - schedule.Eps
				s.open(tau, ks[i])
				s.reach(y, 0)
				count := 0
				for proc := 0; proc < c.p; proc++ {
					until, idle := ref.freeAt(proc, tau)
					wantIn := idle && until >= y
					if wantIn {
						count++
					}
					if s.has(proc) != wantIn {
						t.Fatalf("%s: tau %v y %v proc %d: profile idle=%v, reference idle=%v until=%v",
							label, tau, y, proc, s.has(proc), idle, until)
					}
				}
				if s.free != count {
					t.Fatalf("%s: tau %v y %v: free %d, reference %d", label, tau, y, s.free, count)
				}
				n := 1 + d.Intn(c.p)
				s.open(tau, ks[i])
				if got := s.reach(y, n); got != (count >= n) {
					t.Fatalf("%s: tau %v y %v n %d: reach %v with %d fitting", label, tau, y, n, got, count)
				}
			}
		}
	}
}

// TestChartProfileMatchesReferenceProperty checks the availability profile
// against the busy-list reference chart on random LoCBS-shaped charts, at
// every candidate time, on one and several bitset words, with and without
// backfill; then rolls the profile back to every mark of its log — the
// newest-first pop path and, for charts without presets, the forward
// rebuild — and checks each restored profile bit for bit against a fresh
// replay of the kept ops.
func TestChartProfileMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, p := range profileProcs {
		for iter := 0; iter < 40; iter++ {
			backfill := iter%4 != 0
			presets, ops := genChart(rng, p)
			if iter%3 == 0 {
				presets = nil
			}
			// Book the ops out of time order, so backfill fills holes.
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			c, ref := buildCharts(p, backfill, presets, ops)
			label := fmt.Sprintf("P=%d backfill=%v", p, backfill)
			checkSlots(t, c, ref, rng, label)
			for mark := len(ops); mark >= 0; mark-- {
				c, _ := buildCharts(p, backfill, presets, ops)
				c.rollback(mark)
				want, _ := buildCharts(p, backfill, presets, ops[:mark])
				chartStatesEqual(t, c, want, label+" rollback")
				if c.mark() != mark {
					t.Fatalf("%s: log has %d ops after rollback(%d)", label, c.mark(), mark)
				}
			}
		}
	}
}

// refTryAt is the busy-list engine's tryAt, probing the reference chart:
// each fixed-point round takes the first n processors in preference order
// idle at tau until at least need-Eps.
func refTryAt(e *placer, ref *refChart, tau float64, n int, et float64, parents []model.AdjEdge, maxParentFt float64) (attempt, bool) {
	type freeProc struct {
		id    int
		until float64
	}
	var free []freeProc
	for _, id := range e.pref {
		if until, idle := ref.freeAt(int(id), tau); idle {
			free = append(free, freeProc{int(id), until})
		}
	}
	need := tau + et
	for round := 0; round < 4; round++ {
		var procs []int
		minUntil := math.Inf(1)
		for _, fp := range free {
			if len(procs) < n && fp.until >= need-schedule.Eps {
				procs = append(procs, fp.id)
				minUntil = min(minUntil, fp.until)
			}
		}
		if len(procs) < n {
			return attempt{}, false
		}
		slices.Sort(procs)
		var att attempt
		e.timeOn(&att, tau, et, parents, maxParentFt, procs)
		if minUntil >= att.finish-schedule.Eps {
			return att, true
		}
		if att.finish <= need+schedule.Eps {
			return attempt{}, false
		}
		need = att.finish
	}
	return attempt{}, false
}

// TestTryAtMatchesReferenceProperty runs tryAt on the profile and the
// busy-list engine's tryAt on the reference chart at every candidate time
// of random charts, for every width: the verdict, the finish time and the
// processor set must agree. The task has a parent whose output must be
// redistributed, so the fixed-point rounds stretch the idle window; half
// the clusters serialize that communication on the receivers, half the
// charts carry node speed factors.
func TestTryAtMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1019))
	for _, p := range profileProcs {
		for iter := 0; iter < 12; iter++ {
			backfill := iter%4 != 0
			presets, ops := genChart(rng, p)
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			e, ref := randomPlacer(t, rng, p, backfill, presets, ops)
			parents := e.tg.PredEdges(1)
			est := e.sched.Placements[0].Finish
			taus := ref.candidateTimes(est, nil)
			k := e.sc.scan.reset(&e.sc.chart, est)
			for i, tau := range taus {
				if i > 0 {
					if k = e.sc.scan.nextSlot(k); k < 0 || e.sc.chart.t[k] != tau {
						t.Fatalf("P=%d: candidate %d is %v on the reference", p, i, tau)
					}
				}
				for n := 1; n <= p; n += 1 + rng.Intn(max(1, p/8)) {
					et := drawET(rng)
					var got attempt
					gotOK := e.tryAt(&got, tau, k, n, et, parents, est)
					want, wantOK := refTryAt(e, ref, tau, n, et, parents, est)
					if gotOK != wantOK || gotOK && (got.finish != want.finish || !slices.Equal(got.procs, want.procs)) {
						t.Fatalf("P=%d backfill=%v tau=%v n=%d et=%v: profile (%v, %v, %v), reference (%v, %v, %v)",
							p, backfill, tau, n, et, gotOK, got.finish, got.procs, wantOK, want.finish, want.procs)
					}
				}
			}
		}
	}
}

// randomPlacer sets up a placer for task 1 of a two-task graph whose task
// 0 is already placed on a random processor set, with the given chart
// booked on its scratch, random locality scores and, on half the charts,
// random node factors. It returns the reference chart of the same ops.
func randomPlacer(t *testing.T, rng *rand.Rand, p int, backfill bool, presets, ops []shadowOp) (*placer, *refChart) {
	t.Helper()
	tg := mustTG(t, []model.Task{
		{Name: "parent", Profile: speedup.Downey{T1: 10, A: 8, Sigma: 1}},
		{Name: "child", Profile: speedup.Downey{T1: 20, A: 16, Sigma: 1}},
	}, []model.Edge{{From: 0, To: 1, Volume: 1e5 + 1e6*rng.Float64()}})
	cluster := model.Cluster{P: p, Bandwidth: 1e6, Overlap: rng.Intn(2) == 0}
	sc := &placerScratch{}
	sc.preparePlacer(2, p, backfill, false)
	c, ref := buildCharts(p, backfill, presets, ops)
	sc.chart = *c
	cfg := Config{Backfill: backfill, Locality: true}.withDefaults()
	e := &placer{
		tg: tg, tb: tg.Tables(p), cluster: cluster, cfg: cfg, rm: redistModel(cfg, cluster),
		sc: sc, sched: schedule.NewSchedule("test", cluster, tg),
	}
	var src []int
	for proc := 0; proc < p; proc++ {
		if rng.Intn(3) == 0 || (proc == p-1 && len(src) == 0) {
			src = append(src, proc)
		}
	}
	e.sched.Placements[0] = schedule.Placement{Procs: src, Start: 0, Finish: float64(rng.Intn(8)) / 2}
	if rng.Intn(2) == 0 {
		e.factor = make([]float64, p)
		for i := range e.factor {
			e.factor[i] = 1 + float64(rng.Intn(3))/2
		}
	}
	e.fillLocalityScores(1, e.tg.PredEdges(1))
	e.buildPreference(1)
	return e, ref
}

// FuzzChartProfile decodes a processor count, a chart mode and a sequence
// of reservations, rollbacks and slot queries from the fuzz input and
// checks every query, and every rollback bit for bit, against the
// busy-list reference chart.
func FuzzChartProfile(f *testing.F) {
	f.Add([]byte{0, 1, 7, 3, 200, 9, 42, 17, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 0, 250, 1, 2, 3, 99, 1, 0, 7, 7, 7, 1, 1, 1, 0, 0, 0, 3, 3})
	f.Add([]byte{4, 1, 11, 22, 33, 44, 55, 66, 77, 88, 99, 111, 122, 133, 144, 155})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := byteDraw(in)
		p := profileProcs[d.Intn(len(profileProcs))]
		backfill := d.Intn(2) == 0
		presets, ops := genChart(&d, p)
		// pending holds the ops not yet booked; booked ones leave it in the
		// order the input picks, and a rollback returns them.
		pending := ops
		var booked []shadowOp
		c, ref := buildCharts(p, backfill, presets, nil)
		queries := 0
		for step := 0; step < 64 && len(d) > 0; step++ {
			switch d.Intn(4) {
			case 0, 1:
				if len(pending) == 0 {
					continue
				}
				i := d.Intn(len(pending))
				op := pending[i]
				pending = append(append([]shadowOp(nil), pending[:i]...), pending[i+1:]...)
				booked = append(booked, op)
				c.reserve(op.start, op.end, op.procs...)
				for _, proc := range op.procs {
					ref.reserve(proc, op.start, op.end)
				}
			case 2:
				mark := d.Intn(len(booked) + 1)
				c.rollback(mark)
				pending = append(pending, booked[mark:]...)
				booked = booked[:mark]
				var want *chart
				want, ref = buildCharts(p, backfill, presets, booked)
				chartStatesEqual(t, c, want, "fuzz rollback")
			default:
				if queries++; queries < 4 {
					checkSlots(t, c, ref, &d, "fuzz")
				}
			}
		}
		checkSlots(t, c, ref, &d, "fuzz")
	})
}
