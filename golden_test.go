package locmps_test

// Golden-determinism harness: the optimized scheduler hot path must emit
// bit-identical schedules (makespans and placements) to the recorded seed
// implementation. The fixture in testdata/golden_seed.json was generated by
// the pre-optimization code; regenerate it only when a deliberate
// quality-affecting algorithm change is made:
//
//	go test -run TestGoldenDeterminism -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"locmps"
	"locmps/internal/core"
	"locmps/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_seed.json from the current implementation")

const goldenPath = "testdata/golden_seed.json"

// goldenPlacement stores one task's placement with float bits so JSON
// round-trips are exact.
type goldenPlacement struct {
	Procs  []int  `json:"procs"`
	Start  uint64 `json:"start_bits"`
	Finish uint64 `json:"finish_bits"`
}

type goldenCase struct {
	Name       string            `json:"name"`
	Makespan   uint64            `json:"makespan_bits"`
	Placements []goldenPlacement `json:"placements"`
}

type goldenFile struct {
	Note  string       `json:"note"`
	Cases []goldenCase `json:"cases"`
}

// goldenWorkloads enumerates every (name, graph, cluster, scheduler) cell
// the fixture covers: the quick synthetic suite, CCSD-T1 and Strassen, under
// LoC-MPS, its variants, the dual-start search and the LoCBS-based CPR
// baseline.
func goldenWorkloads(t testing.TB) []goldenCase {
	t.Helper()
	type cell struct {
		name string
		tg   *locmps.TaskGraph
		c    locmps.Cluster
		run  func(*locmps.TaskGraph, locmps.Cluster) (*locmps.Schedule, error)
	}
	sched := func(alg locmps.Scheduler) func(*locmps.TaskGraph, locmps.Cluster) (*locmps.Schedule, error) {
		return alg.Schedule
	}

	p := locmps.DefaultSynthParams()
	p.CCR = 0.1
	p.Seed = 2006
	graphs, err := locmps.SyntheticSuite(p, 5, 10, 25)
	if err != nil {
		t.Fatalf("synthetic suite: %v", err)
	}
	ccsd, err := locmps.CCSDT1(locmps.CCSDParams{O: 16, V: 64})
	if err != nil {
		t.Fatalf("ccsd: %v", err)
	}
	strassen, err := locmps.Strassen(1024)
	if err != nil {
		t.Fatalf("strassen: %v", err)
	}

	var cells []cell
	for gi, tg := range graphs {
		for _, procs := range []int{4, 8, 16} {
			c := locmps.Cluster{P: procs, Bandwidth: p.Bandwidth, Overlap: true}
			cells = append(cells, cell{
				name: fmt.Sprintf("synthetic-g%d-P%d-LoC-MPS", gi, procs),
				tg:   tg, c: c, run: sched(locmps.NewLoCMPS()),
			})
		}
	}
	// Variant configurations on one synthetic graph: no-backfill, iCASLB
	// and the LoCBS-driven CPR baseline.
	cVar := locmps.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: true}
	cells = append(cells,
		cell{name: "synthetic-g0-P8-NoBF", tg: graphs[0], c: cVar, run: sched(locmps.NewLoCMPSNoBackfill())},
		cell{name: "synthetic-g0-P8-iCASLB", tg: graphs[0], c: cVar, run: sched(locmps.NewICASLB())},
		cell{name: "synthetic-g0-P8-CPR", tg: graphs[0], c: cVar, run: sched(locmps.NewCPR())},
		cell{name: "synthetic-g1-P8-noOverlap", tg: graphs[1],
			c:   locmps.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: false},
			run: sched(locmps.NewLoCMPS())},
	)
	for _, procs := range []int{4, 16, 32} {
		c := locmps.Cluster{P: procs, Bandwidth: locmps.MyrinetBandwidth, Overlap: true}
		cells = append(cells, cell{
			name: fmt.Sprintf("ccsd-P%d-LoC-MPS", procs),
			tg:   ccsd, c: c, run: sched(locmps.NewLoCMPS()),
		})
	}
	cells = append(cells, cell{
		name: "ccsd-P16-Dual",
		tg:   ccsd, c: locmps.Cluster{P: 16, Bandwidth: locmps.MyrinetBandwidth, Overlap: true},
		run: locmps.ScheduleDual,
	})
	for _, procs := range []int{8, 16} {
		c := locmps.Cluster{P: procs, Bandwidth: locmps.MyrinetBandwidth, Overlap: true}
		cells = append(cells, cell{
			name: fmt.Sprintf("strassen1024-P%d-LoC-MPS", procs),
			tg:   strassen, c: c, run: sched(locmps.NewLoCMPS()),
		})
	}
	// The one-shot baselines: M-HEFT scans every width up to the task's
	// saturation point (at 64 tasks on P=64 that is dozens of widths per
	// placement), CPA grows allocations along the critical path before one
	// LoCBS run.
	wide := func(tasks int, ccr float64, seed int64) *locmps.TaskGraph {
		wp := locmps.DefaultSynthParams()
		wp.Tasks, wp.CCR, wp.Seed = tasks, ccr, seed
		tg, err := locmps.SyntheticSeriesParallel(wp)
		if err != nil {
			t.Fatalf("series-parallel %d: %v", tasks, err)
		}
		return tg
	}
	sp64, sp40 := wide(64, 0.1, 2006), wide(40, 1, 2007)
	c64 := locmps.Cluster{P: 64, Bandwidth: p.Bandwidth, Overlap: true}
	cells = append(cells,
		cell{name: "synthetic-g0-P8-M-HEFT", tg: graphs[0], c: cVar, run: sched(locmps.NewMHEFT())},
		cell{name: "synthetic-g1-P8-noOverlap-M-HEFT", tg: graphs[1],
			c:   locmps.Cluster{P: 8, Bandwidth: p.Bandwidth, Overlap: false},
			run: sched(locmps.NewMHEFT())},
		cell{name: "ccsd-P32-M-HEFT", tg: ccsd,
			c:   locmps.Cluster{P: 32, Bandwidth: locmps.MyrinetBandwidth, Overlap: true},
			run: sched(locmps.NewMHEFT())},
		cell{name: "sp64-P64-M-HEFT", tg: sp64, c: c64, run: sched(locmps.NewMHEFT())},
		cell{name: "synthetic-g2-P16-CPA", tg: graphs[2],
			c:   locmps.Cluster{P: 16, Bandwidth: p.Bandwidth, Overlap: true},
			run: sched(locmps.NewCPA())},
		cell{name: "sp40-P64-CPA", tg: sp40, c: c64, run: sched(locmps.NewCPA())},
		cell{name: "sp64-P64-CPA", tg: sp64, c: c64, run: sched(locmps.NewCPA())},
	)
	// Processor counts that straddle one 64-bit word of the chart's
	// availability bitsets, the no-backfill variant at a full word, node
	// speed factors, and a mid-execution preset whose fixed spans are
	// clipped at the processors' busy horizons.
	for _, procs := range []int{65, 128} {
		cells = append(cells, cell{
			name: fmt.Sprintf("synthetic-g3-P%d-LoC-MPS", procs),
			tg:   graphs[3], c: locmps.Cluster{P: procs, Bandwidth: p.Bandwidth, Overlap: true},
			run: sched(locmps.NewLoCMPS()),
		})
	}
	cells = append(cells,
		cell{name: "sp40-P64-NoBF", tg: sp40, c: c64, run: sched(locmps.NewLoCMPSNoBackfill())},
		cell{name: "synthetic-g1-P8-Heterogeneous", tg: graphs[1], c: cVar,
			run: func(tg *locmps.TaskGraph, c locmps.Cluster) (*locmps.Schedule, error) {
				return locmps.ScheduleHeterogeneous(tg, c, []float64{1, 2, 1, 1.5, 1, 3, 1, 1})
			}},
		cell{name: "synthetic-g2-P16-Preset", tg: graphs[2],
			c:   locmps.Cluster{P: 16, Bandwidth: p.Bandwidth, Overlap: true},
			run: presetReplan},
	)

	out := make([]goldenCase, 0, len(cells))
	for _, cl := range cells {
		s, err := cl.run(cl.tg, cl.c)
		if err != nil {
			t.Fatalf("%s: %v", cl.name, err)
		}
		gc := goldenCase{Name: cl.name, Makespan: math.Float64bits(s.Makespan)}
		for _, pl := range s.Placements {
			gc.Placements = append(gc.Placements, goldenPlacement{
				Procs:  append([]int(nil), pl.Procs...),
				Start:  math.Float64bits(pl.Start),
				Finish: math.Float64bits(pl.Finish),
			})
		}
		out = append(out, gc)
	}
	return out
}

// TestGoldenDeterminism asserts that the scheduler produces bit-identical
// makespans and placements to the recorded seed implementation across the
// quick synthetic suite, CCSD-T1 and Strassen workloads.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite is several seconds of scheduling work")
	}
	got := goldenWorkloads(t)

	if *updateGolden {
		f := goldenFile{
			Note:  "Seed-implementation schedules; see golden_test.go. Regenerate with -update-golden only for deliberate algorithm changes.",
			Cases: got,
		}
		blob, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s with %d cases", goldenPath, len(got))
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run with -update-golden to create): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	if len(want.Cases) != len(got) {
		t.Fatalf("fixture has %d cases, harness produced %d", len(want.Cases), len(got))
	}
	for i, w := range want.Cases {
		g := got[i]
		if w.Name != g.Name {
			t.Fatalf("case %d: fixture %q vs harness %q", i, w.Name, g.Name)
		}
		if w.Makespan != g.Makespan {
			t.Errorf("%s: makespan %v != seed %v", g.Name,
				math.Float64frombits(g.Makespan), math.Float64frombits(w.Makespan))
			continue
		}
		if len(w.Placements) != len(g.Placements) {
			t.Errorf("%s: %d placements, seed had %d", g.Name, len(g.Placements), len(w.Placements))
			continue
		}
		for ti := range w.Placements {
			wp, gp := w.Placements[ti], g.Placements[ti]
			if !reflect.DeepEqual(wp.Procs, gp.Procs) || wp.Start != gp.Start || wp.Finish != gp.Finish {
				t.Errorf("%s: task %d placement diverged: procs %v@[%v,%v] vs seed %v@[%v,%v]",
					g.Name, ti, gp.Procs,
					math.Float64frombits(gp.Start), math.Float64frombits(gp.Finish),
					wp.Procs,
					math.Float64frombits(wp.Start), math.Float64frombits(wp.Finish))
				break
			}
		}
	}
}

// presetReplan re-plans a graph mid-execution: it schedules the graph, cuts
// the schedule at 40% of its makespan, fixes every task started by then and
// marks two of every three processors busy until the cut. Fixed tasks still
// running at the cut are booked from it (their spans clipped), the rest of
// the graph is searched afresh around them.
func presetReplan(tg *locmps.TaskGraph, c locmps.Cluster) (*locmps.Schedule, error) {
	first, err := locmps.NewLoCMPS().Schedule(tg, c)
	if err != nil {
		return nil, err
	}
	cut := 0.4 * first.Makespan
	preset := core.Preset{Fixed: map[int]schedule.Placement{}, BusyUntil: make([]float64, c.P)}
	for t, pl := range first.Placements {
		if pl.Start < cut {
			preset.Fixed[t] = pl
		}
	}
	for proc := range preset.BusyUntil {
		if proc%3 != 0 {
			preset.BusyUntil[proc] = cut
		}
	}
	return core.New().ScheduleWithPreset(tg, c, preset)
}
