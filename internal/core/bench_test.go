package core

import (
	"testing"

	"locmps/internal/model"
	"locmps/internal/synth"
)

// coldMixGraphs regenerates the strata of the cold serving workload: the
// three synthetic shapes at CCR 0.1 and 1, 16 or 24 tasks, on 16 or 32
// processors — 24 strata, one graph each, with the graph seeds a cold run
// at seed 1 uses for its first 24 requests.
func coldMixGraphs(b *testing.B) ([]*model.TaskGraph, []model.Cluster) {
	b.Helper()
	sizes := [][2]int{{16, 16}, {24, 16}, {16, 32}, {24, 32}}
	var graphs []*model.TaskGraph
	var clusters []model.Cluster
	for i := 0; i < 24; i++ {
		size := sizes[(i/6)%len(sizes)]
		p := synth.DefaultParams()
		p.Tasks, p.CCR, p.Seed = size[0], []float64{0.1, 1}[(i/3)%2], int64(1_000_003+i)
		var (
			tg  *model.TaskGraph
			err error
		)
		switch i % 3 {
		case 0:
			tg, err = synth.Layered(p, max(2, size[0]/6))
		case 1:
			tg, err = synth.ForkJoin(p)
		default:
			tg, err = synth.SeriesParallel(p)
		}
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, tg)
		clusters = append(clusters, model.Cluster{P: size[1], Bandwidth: 12.5e6, Overlap: true})
	}
	return graphs, clusters
}

// BenchmarkColdMix times one full LoC-MPS search per cold stratum, as a
// serving worker runs them: every search misses every cache keyed by its
// graph, so the time is the search and its LoCBS placement scans.
func BenchmarkColdMix(b *testing.B) {
	graphs, clusters := coldMixGraphs(b)
	alg := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, tg := range graphs {
			if _, err := alg.Schedule(tg, clusters[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
