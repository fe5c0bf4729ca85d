package core

import (
	"math/rand"
	"slices"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// chartStatesEqual compares two availability profiles bit for bit: the
// boundary times and every busy, starts and ends word. The undo logs are
// deliberately excluded (a rolled-back chart keeps a shorter log than a
// fresh replay that never recorded).
func chartStatesEqual(t *testing.T, got, want *chart, label string) {
	t.Helper()
	if got.p != want.p || got.backfill != want.backfill {
		t.Fatalf("%s: shape (p=%d bf=%v) vs (p=%d bf=%v)",
			label, got.p, got.backfill, want.p, want.backfill)
	}
	if !slices.Equal(got.t, want.t) {
		t.Fatalf("%s: boundaries %v, want %v", label, got.t, want.t)
	}
	if !slices.Equal(got.bits, want.bits) {
		t.Fatalf("%s: profile bits differ at boundaries %v", label, got.t)
	}
}

type shadowOp struct {
	procs      []int
	start, end float64
}

// replayShadow builds a fresh chart holding exactly the given reservations,
// applied in order.
func replayShadow(p int, backfill bool, ops []shadowOp) *chart {
	c := newChart(p, backfill)
	for _, op := range ops {
		c.reserve(op.start, op.end, op.procs...)
	}
	return c
}

// TestChartRollbackRebuildDeterministic pins the forward-rebuild shortcut:
// rolling a long log back to a short kept prefix must leave the chart
// bit-identical to a fresh replay of that prefix.
func TestChartRollbackRebuildDeterministic(t *testing.T) {
	for _, backfill := range []bool{true, false} {
		c := newChart(4, backfill)
		c.record()
		r := rand.New(rand.NewSource(11))
		var shadow []shadowOp
		frontier := make([]float64, 4)
		for i := 0; i < 100; i++ {
			proc := r.Intn(4)
			start := frontier[proc] + r.Float64()*3
			end := start + 0.5 + r.Float64()*2
			frontier[proc] = end
			c.reserve(start, end, proc)
			shadow = append(shadow, shadowOp{[]int{proc}, start, end})
		}
		if !c.rebuildOK {
			t.Fatalf("backfill=%v: chart recorded from empty should allow rebuild", backfill)
		}
		c.rollback(10) // 2*10 < 100: takes the rebuild path
		chartStatesEqual(t, c, replayShadow(4, backfill, shadow[:10]), "rebuild")
		if got := c.mark(); got != 10 {
			t.Fatalf("backfill=%v: log has %d ops after rollback(10)", backfill, got)
		}
	}
}

// TestChartRollbackMatchesReplayProperty drives random interleavings of
// reserves (frontier extensions and, with backfill, hole fills, some of
// them overlapping a neighbour by less than Eps) and rollbacks to random
// marks, checking after every rollback that the live chart equals a fresh
// replay of the surviving reservation prefix. Both the newest-first pop
// path and the forward-rebuild path are exercised (the mark's position
// relative to half the log decides which one runs). The reference chart
// follows the same ops and decides which spans are free.
func TestChartRollbackMatchesReplayProperty(t *testing.T) {
	for _, backfill := range []bool{true, false} {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			const p = 5
			c, ref := newChart(p, backfill), newRefChart(p, backfill)
			c.record()
			ref.record()
			var shadow []shadowOp

			for step := 0; step < 400; step++ {
				if r.Float64() < 0.72 || len(shadow) == 0 {
					var start float64
					if backfill && r.Float64() < 0.5 {
						// Aim into the chart body; keep only hits on idle spans.
						start = r.Float64() * 40
					} else {
						start = ref.frontier(r.Intn(p)) + r.Float64()*4
					}
					end := start + 0.25 + r.Float64()*3
					var procs []int
					for proc := 0; proc < p; proc++ {
						if until, free := ref.freeAt(proc, start); free && until >= end-schedule.Eps && r.Intn(2) == 0 {
							procs = append(procs, proc)
						}
					}
					if len(procs) == 0 {
						continue
					}
					c.reserve(start, end, procs...)
					for _, proc := range procs {
						ref.reserve(proc, start, end)
					}
					shadow = append(shadow, shadowOp{procs, start, end})
					continue
				}
				mark := r.Intn(len(shadow) + 1)
				c.rollback(mark)
				shadow = shadow[:mark]
				ref = newRefChart(p, backfill)
				ref.record()
				for _, op := range shadow {
					for _, proc := range op.procs {
						ref.reserve(proc, op.start, op.end)
					}
				}
				chartStatesEqual(t, c, replayShadow(p, backfill, shadow), "rollback")
			}
		}
	}
}

// TestIncrementalPlacerMatchesScratch re-runs the placement engine through
// one shared scratch in incremental mode, perturbing the allocation vector a
// little between runs — the exact access pattern of the LoC-MPS look-ahead —
// and checks every schedule is bit-identical to a from-scratch LoCBS run.
func TestIncrementalPlacerMatchesScratch(t *testing.T) {
	cfg := DefaultConfig()
	run := func(t *testing.T, tg *model.TaskGraph, cluster model.Cluster, seed int64) {
		t.Helper()
		r := rand.New(rand.NewSource(seed))
		n := tg.N()
		np := make([]int, n)
		for i := range np {
			np[i] = 1
		}
		sc := getScratch()
		defer putScratch(sc)
		sc.prepareSearch(n, tg.M())
		resumed := false
		for round := 0; round < 25; round++ {
			// Perturb a couple of widths, as the look-ahead does.
			for k := 0; k < 1+r.Intn(2); k++ {
				ti := r.Intn(n)
				np[ti] = 1 + r.Intn(cluster.P)
			}
			inc, err := runPlacer(tg, cluster, np, cfg, Preset{}, sc, true)
			if err != nil {
				t.Fatalf("round %d: incremental: %v", round, err)
			}
			resumed = resumed || sc.lastReplayed > 0
			fresh, err := LoCBS(tg, cluster, np, cfg)
			if err != nil {
				t.Fatalf("round %d: scratch: %v", round, err)
			}
			assertSameSchedule(t, inc, fresh, "incremental vs scratch")
		}
		if !resumed {
			t.Error("no run resumed from the trace; the incremental path was never exercised")
		}
	}

	t.Run("diamond", func(t *testing.T) {
		run(t, memoGraph(t), memoCluster(), 3)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			g := rand.New(rand.NewSource(100 + seed))
			tg := randomTaskGraph(g, 12+g.Intn(10), 3)
			run(t, tg, model.Cluster{P: 8, Bandwidth: 12.5e6, Overlap: true}, seed)
		}
	})
}
