package core

import (
	"math/rand"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// randomSlotChart books a random chart on sc for p processors: per-processor
// interval chains on a half-unit grid (so boundaries tie across processors)
// that abut, overlap by less than Eps or leave gaps, plus the reservations a
// Preset adds — a BusyUntil span from zero and Fixed placements clipped to
// start at it. It returns the placer that probes the chart, with a
// preference order built from random locality scores and, on half the
// charts, random node factors.
func randomSlotChart(rng *rand.Rand, sc *placerScratch, p int, backfill bool) *placer {
	sc.preparePlacer(1, p, backfill, false)
	grid := func(hi int) float64 { return float64(rng.Intn(2*hi)) / 2 }
	busyUntil := make([]float64, p)
	for proc := 0; proc < p; proc++ {
		if rng.Intn(3) == 0 {
			busyUntil[proc] = grid(6)
			sc.chart.reserve(proc, 0, busyUntil[proc])
		}
		if rng.Intn(4) == 0 {
			// A Fixed placement still running, clipped to BusyUntil.
			start := grid(4)
			sc.chart.reserve(proc, max(start, busyUntil[proc]), start+1+grid(6))
		}
		at := busyUntil[proc] + grid(3)
		for k := rng.Intn(6); k > 0; k-- {
			switch rng.Intn(4) {
			case 0: // abut the previous interval
			case 1: // overlap it by less than Eps
				at -= schedule.Eps * rng.Float64()
			default:
				at += grid(3)
			}
			end := at + 0.5 + grid(3)
			sc.chart.reserve(proc, at, end)
			at = end
		}
	}
	e := &placer{
		cluster: model.Cluster{P: p, Bandwidth: 1e6, Overlap: rng.Intn(2) == 0},
		cfg:     Config{Backfill: backfill, Locality: true},
		sc:      sc,
	}
	if rng.Intn(2) == 0 {
		e.factor = make([]float64, p)
		for i := range e.factor {
			e.factor[i] = 1 + float64(rng.Intn(3))/2
		}
	}
	for i := range sc.score {
		sc.score[i] = float64(rng.Intn(3))
	}
	e.buildPreference(0)
	return e
}

// randomWidthTime draws an execution time that often lands exactly on, or
// within Eps of either side of, an idle-until boundary.
func randomWidthTime(rng *rand.Rand) float64 {
	et := 0.5 + float64(rng.Intn(12))/2
	switch rng.Intn(4) {
	case 0:
		et += schedule.Eps / 2
	case 1:
		et += 3 * schedule.Eps / 2
	}
	return et
}

// TestSlotTableMatchesFirstRoundProperty checks the slot table against
// tryAt on random charts: a (width, time) cell fits iff tryAt's first
// fixed-point round fills its subset, which is exactly when tryAt reaches
// timeOn (observed through the communication memo). Every width walks the
// candidate times with tryAt at each one, as place does without a table.
func TestSlotTableMatchesFirstRoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sc := &placerScratch{}
	cells, rejected := 0, 0
	for iter := 0; iter < 400; iter++ {
		p := 1 + rng.Intn(24)
		backfill := iter%4 != 0
		e := randomSlotChart(rng, sc, p, backfill)
		est := float64(rng.Intn(16)) / 2
		taus := sc.chart.candidateTimes(est, nil) // place's walk
		sc.slots.reset(p)
		for n := 1; n <= p; n++ {
			et := randomWidthTime(rng)
			sc.posBuf = resetIntsTo(sc.posBuf, p, -1)
			for row, tau := range taus {
				fits := sc.slots.fits(&sc.chart, row, tau, n, et)
				sc.ct.reset()
				if _, _, err := e.tryAt(0, tau, n, et, nil, est); err != nil {
					t.Fatal(err)
				}
				if reached := sc.ct.count > 0; fits != reached {
					t.Fatalf("iter %d (P=%d backfill=%v) n=%d tau=%v et=%v: table fits=%v, tryAt round 0 filled=%v",
						iter, p, backfill, n, tau, et, fits, reached)
				}
				cells++
				if !fits {
					rejected++
				}
			}
		}
	}
	if rejected == 0 || rejected == cells {
		t.Fatalf("degenerate charts: %d of %d cells rejected", rejected, cells)
	}
}

// TestSlotTableSkipKeepsAttemptsProperty checks the skip itself: walking a
// width with tryAt only where the table fits leaves the busy-list cursors
// behind where the full walk would have them, and every tryAt that still
// runs must return what it returns in the full walk.
func TestSlotTableSkipKeepsAttemptsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1018))
	sc := &placerScratch{}
	type outcome struct {
		ok     bool
		finish float64
		procs  []int
	}
	for iter := 0; iter < 300; iter++ {
		p := 1 + rng.Intn(24)
		backfill := iter%4 != 0
		e := randomSlotChart(rng, sc, p, backfill)
		est := float64(rng.Intn(16)) / 2
		taus := sc.chart.candidateTimes(est, nil) // place's walk
		sc.slots.reset(p)
		for n := 1; n <= p; n++ {
			et := randomWidthTime(rng)
			walk := func(skip bool) []outcome {
				sc.posBuf = resetIntsTo(sc.posBuf, p, -1)
				out := make([]outcome, len(taus))
				for row, tau := range taus {
					if skip && !sc.slots.fits(&sc.chart, row, tau, n, et) {
						continue
					}
					att, ok, err := e.tryAt(0, tau, n, et, nil, est)
					if err != nil {
						t.Fatal(err)
					}
					out[row] = outcome{ok: ok, finish: att.finish, procs: append([]int(nil), att.procs...)}
				}
				return out
			}
			full, skipped := walk(false), walk(true)
			for row := range taus {
				if !sc.slots.fits(&sc.chart, row, taus[row], n, et) {
					if full[row].ok {
						t.Fatalf("iter %d n=%d tau=%v: skipped a feasible slot", iter, n, taus[row])
					}
					continue
				}
				f, s := full[row], skipped[row]
				if f.ok != s.ok || f.finish != s.finish || !intsEqual(f.procs, s.procs) {
					t.Fatalf("iter %d (P=%d backfill=%v) n=%d tau=%v: full walk %+v, skipping walk %+v",
						iter, p, backfill, n, taus[row], f, s)
				}
			}
		}
	}
}
