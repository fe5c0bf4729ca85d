package exp

import (
	"fmt"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/stats"
)

// SearchStatsFigure profiles the LoC-MPS search layer itself rather than
// schedule quality: for every machine size it reports, averaged over the
// suite's graphs, how much work the §III.C/§III.E look-ahead performed
// (placement-engine runs, look-ahead steps) and how much of it the
// allocation-vector memo absorbed (cache-hit percentage), plus the
// incremental-placement accounting (resumed runs, replayed tasks, rollback
// depth and the replay rate). It is the experiment-level view of the numbers cmd/benchjson records per
// benchmark case.
func SearchStatsFigure(opt SuiteOptions) (Figure, error) {
	if err := opt.validate(); err != nil {
		return Figure{}, err
	}
	graphs, err := opt.graphs()
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		ID: "stats", Title: "LoC-MPS search-layer statistics (memo + resume)",
		XLabel: "procs", YLabel: "mean per scheduler run",
	}
	nP, nG := len(opt.Procs), len(graphs)
	cells := make([]model.RunMetrics, nP*nG)
	// Each cell gets a fresh scheduler instance: LastRunMetrics reports the
	// most recent run, so instances must not be shared across cells.
	err = parallelFor(opt.Workers, len(cells), func(idx int) error {
		pi, gi := idx/nG, idx%nG
		alg := core.New()
		if _, err := alg.Schedule(graphs[gi], opt.cluster(opt.Procs[pi])); err != nil {
			return fmt.Errorf("exp: stats graph %d P=%d: %w", gi, opt.Procs[pi], err)
		}
		cells[idx] = alg.LastRunMetrics()
		return nil
	})
	if err != nil {
		return Figure{}, err
	}

	series := []struct {
		name string
		get  func(model.RunMetrics) float64
	}{
		{"locbs-runs", func(m model.RunMetrics) float64 { return float64(m.LoCBSRuns) }},
		{"lookahead-steps", func(m model.RunMetrics) float64 { return float64(m.LookAheadSteps) }},
		{"cache-hit-%", func(m model.RunMetrics) float64 { return 100 * m.CacheHitRate() }},
		{"resumed-runs", func(m model.RunMetrics) float64 { return float64(m.ResumedRuns) }},
		{"replayed-tasks", func(m model.RunMetrics) float64 { return float64(m.ReplayedTasks) }},
		{"rollback-depth", func(m model.RunMetrics) float64 { return float64(m.RollbackDepth) }},
		{"replay-%", func(m model.RunMetrics) float64 { return 100 * m.ReplayRate() }},
	}
	for _, sp := range series {
		s := Series{Name: sp.name}
		for pi, p := range opt.Procs {
			vals := make([]float64, 0, nG)
			for gi := 0; gi < nG; gi++ {
				vals = append(vals, sp.get(cells[pi*nG+gi]))
			}
			s.Points = append(s.Points, Point{X: float64(p), Y: stats.Mean(vals)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
