package core

import (
	"math/rand"
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// probeCase builds one random placement instance: a layered DAG, a cluster
// wide enough for multi-processor widths, and a random allocation vector.
func probeCase(seed int64) (*model.TaskGraph, model.Cluster, []int) {
	r := rand.New(rand.NewSource(seed))
	tg := randomTaskGraph(r, 8+r.Intn(14), 3)
	cluster := model.Cluster{P: 4 + r.Intn(9), Bandwidth: 1e5 + r.Float64()*1e6, Overlap: seed%2 == 0}
	np := make([]int, tg.N())
	for i := range np {
		np[i] = 1 + r.Intn(cluster.P)
	}
	return tg, cluster, np
}

// TestProbeParallelPlacementBitIdentical is the placement-level bit-identity
// property: a run whose candidate scans fan out over the probe pool must
// produce exactly the schedule of the serial scan, because the fold in
// probeTail replays the serial scan's improvement and stopping rules in
// slot order. The sweep also has to actually engage the pool somewhere —
// a silently serial "parallel" run would pass vacuously.
func TestProbeParallelPlacementBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	fanouts := 0
	for seed := int64(0); seed < 16; seed++ {
		tg, cluster, np := probeCase(400 + seed)
		serial, err := LoCBS(tg, cluster, np, cfg)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		sc := getScratch()
		par, err := runPlacer(tg, cluster, np, cfg, Preset{}, sc, false, 4)
		if err != nil {
			putScratch(sc)
			t.Fatalf("seed %d: probe-parallel: %v", seed, err)
		}
		fanouts += sc.lastProbeFanouts
		putScratch(sc)
		assertSameSchedule(t, par, serial, "probe-parallel vs serial")
	}
	if fanouts == 0 {
		t.Error("no candidate scan engaged the probe pool across the sweep; the parallel path was never exercised")
	}
}

// TestProbeParallelWithPresetBitIdentical repeats the bit-identity property
// on the mid-execution rescheduling path: fixed placements, busy processor
// frontiers and a heterogeneous node all constrain the chart the probes
// walk, and the fan-out must still reproduce the serial scan exactly.
func TestProbeParallelWithPresetBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 8; seed++ {
		tg, cluster, np := probeCase(900 + seed)
		base, err := LoCBS(tg, cluster, np, cfg)
		if err != nil {
			t.Fatalf("seed %d: base: %v", seed, err)
		}
		// Fix the earliest-finishing third of the tasks at their committed
		// placements, occupy processor 0 for a while and slow the last node.
		preset := Preset{
			Fixed:      map[int]schedule.Placement{},
			BusyUntil:  make([]float64, cluster.P),
			NodeFactor: make([]float64, cluster.P),
		}
		for p := range preset.NodeFactor {
			preset.NodeFactor[p] = 1
		}
		preset.NodeFactor[cluster.P-1] = 1.5
		preset.BusyUntil[0] = base.Makespan / 4
		cut := base.Makespan / 3
		for tk := 0; tk < tg.N(); tk++ {
			if pl := base.Placements[tk]; pl.Finish <= cut {
				preset.Fixed[tk] = pl
			}
		}
		serial, err := LoCBSWithPreset(tg, cluster, np, cfg, preset)
		if err != nil {
			t.Fatalf("seed %d: serial preset: %v", seed, err)
		}
		sc := getScratch()
		par, err := runPlacer(tg, cluster, np, cfg, preset, sc, false, 4)
		putScratch(sc)
		if err != nil {
			t.Fatalf("seed %d: probe-parallel preset: %v", seed, err)
		}
		assertSameSchedule(t, par, serial, "probe-parallel vs serial with preset")
	}
}

// TestProbeParallelResumeBitIdentical threads the probe pool through the
// incremental-resume path: perturbed allocation vectors re-run through one
// shared scratch in incremental mode, exactly as the look-ahead does, and
// every probe-parallel run must match the from-scratch serial schedule.
func TestProbeParallelResumeBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	tg, cluster, np := probeCase(1234)
	r := rand.New(rand.NewSource(99))
	sc := getScratch()
	defer putScratch(sc)
	sc.prepareSearch(tg.N(), tg.M())
	resumed := false
	for round := 0; round < 20; round++ {
		for k := 0; k < 1+r.Intn(2); k++ {
			np[r.Intn(len(np))] = 1 + r.Intn(cluster.P)
		}
		inc, err := runPlacer(tg, cluster, np, cfg, Preset{}, sc, true, 4)
		if err != nil {
			t.Fatalf("round %d: incremental probe-parallel: %v", round, err)
		}
		resumed = resumed || sc.lastReplayed > 0
		fresh, err := LoCBS(tg, cluster, np, cfg)
		if err != nil {
			t.Fatalf("round %d: scratch: %v", round, err)
		}
		assertSameSchedule(t, inc, fresh, "probe-parallel resume vs scratch")
	}
	if !resumed {
		t.Error("no run resumed from the trace; the incremental path was never exercised")
	}
}
