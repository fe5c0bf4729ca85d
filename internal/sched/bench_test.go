package sched

import (
	"testing"

	"locmps/internal/model"
	"locmps/internal/schedule"
	"locmps/internal/synth"
)

// benchInstances builds the twelve graphs of one size class the way a mixed
// request stream sees them: the three topologies at CCR 0.1 and 1, two
// seeds each. One benchmark op schedules all twelve.
func benchInstances(b *testing.B, tasks int) []*model.TaskGraph {
	b.Helper()
	var out []*model.TaskGraph
	for i := 0; i < 12; i++ {
		p := synth.DefaultParams()
		p.Tasks, p.CCR, p.Seed = tasks, []float64{0.1, 1}[(i/3)%2], int64(1_000_033+i)
		var (
			tg  *model.TaskGraph
			err error
		)
		switch i % 3 {
		case 0:
			tg, err = synth.Layered(p, max(2, tasks/6))
		case 1:
			tg, err = synth.ForkJoin(p)
		default:
			tg, err = synth.SeriesParallel(p)
		}
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, tg)
	}
	return out
}

func benchEngine(b *testing.B, alg schedule.Scheduler, tasks, procs int) {
	graphs := benchInstances(b, tasks)
	c := model.Cluster{P: procs, Bandwidth: synth.DefaultParams().Bandwidth, Overlap: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tg := range graphs {
			if _, err := alg.Schedule(tg, c); err != nil {
				b.Fatalf("%s: %v", alg.Name(), err)
			}
		}
	}
}

// BenchmarkMHEFT64Tasks64Procs times M-HEFT on twelve 64-task graphs at
// P=64, where each placement scans dozens of widths.
func BenchmarkMHEFT64Tasks64Procs(b *testing.B) { benchEngine(b, MHEFT{}, 64, 64) }

// BenchmarkCPA40Tasks64Procs times CPA on twelve 40-task graphs at P=64,
// dominated by its critical-path allocation phase.
func BenchmarkCPA40Tasks64Procs(b *testing.B) { benchEngine(b, CPA{}, 40, 64) }
