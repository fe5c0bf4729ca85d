package locmps

import (
	"locmps/internal/apps"
	"locmps/internal/exp"
	"locmps/internal/model"
	"locmps/internal/speedup"
	"locmps/internal/synth"
)

// Workload generators.
type (
	// SynthParams control random task-graph generation (§IV.A knobs).
	SynthParams = synth.Params
	// CCSDParams size the CCSD-T1 tensor-contraction problem.
	CCSDParams = apps.CCSDParams
)

// DefaultSynthParams mirrors the paper's synthetic workload defaults.
func DefaultSynthParams() SynthParams { return synth.DefaultParams() }

// Synthetic generates one random task graph.
func Synthetic(p SynthParams) (*TaskGraph, error) { return synth.Generate(p) }

// SyntheticSuite generates the paper's 30-graph style evaluation suite.
func SyntheticSuite(p SynthParams, count, minTasks, maxTasks int) ([]*TaskGraph, error) {
	return synth.Suite(p, count, minTasks, maxTasks)
}

// Named benchmark topologies sharing SynthParams' work/speedup
// distributions.

// SyntheticChain generates a linear pipeline (zero task parallelism).
func SyntheticChain(p SynthParams) (*TaskGraph, error) { return synth.Chain(p) }

// SyntheticForkJoin generates source -> parallel branches -> sink.
func SyntheticForkJoin(p SynthParams) (*TaskGraph, error) { return synth.ForkJoin(p) }

// SyntheticOutTree generates a divide-phase tree with the given branching.
func SyntheticOutTree(p SynthParams, branch int) (*TaskGraph, error) {
	return synth.OutTree(p, branch)
}

// SyntheticInTree generates a reduction tree with the given branching.
func SyntheticInTree(p SynthParams, branch int) (*TaskGraph, error) {
	return synth.InTree(p, branch)
}

// SyntheticSeriesParallel generates a random series-parallel DAG.
func SyntheticSeriesParallel(p SynthParams) (*TaskGraph, error) {
	return synth.SeriesParallel(p)
}

// Strassen builds the one-level Strassen multiplication DAG for n x n
// matrices (paper Fig 7(b)).
func Strassen(n int) (*TaskGraph, error) { return apps.Strassen(n) }

// StrassenRecursive builds the multi-level Strassen DAG (7^depth leaf
// multiplications), a stress workload beyond the paper's sizes.
func StrassenRecursive(n, depth int) (*TaskGraph, error) { return apps.StrassenRecursive(n, depth) }

// CCSDT1 builds the CCSD-T1 tensor-contraction DAG (paper Fig 7(a)).
func CCSDT1(p CCSDParams) (*TaskGraph, error) { return apps.CCSDT1(p) }

// DefaultCCSDParams is a mid-size CCSD problem.
func DefaultCCSDParams() CCSDParams { return apps.DefaultCCSDParams() }

// MyrinetBandwidth is the paper's 2 Gbps interconnect in bytes/second.
const MyrinetBandwidth = apps.MyrinetBandwidth

// GraphStats summarizes a task graph's structure and workload.
type GraphStats = model.GraphStats

// GraphStatistics computes depth, width, work, critical path and
// parallelism measures of a task graph.
func GraphStatistics(tg *TaskGraph) (GraphStats, error) { return model.Stats(tg) }

// FitDowney fits Downey parameters to a measured execution-time table
// (times[0] = uniprocessor time), turning profiled curves into analytic
// profiles.
func FitDowney(times []float64) (Downey, error) { return speedup.FitDowney(times) }

// Experiment drivers. Each regenerates one figure of the paper's
// evaluation; see EXPERIMENTS.md for the recorded outcomes.
type (
	// Figure is a reproduced figure: named series over processor counts.
	Figure = exp.Figure
	// Series is one line of a figure.
	Series = exp.Series
	// Point is one sample of a series.
	Point = exp.Point
	// SuiteOptions configure the synthetic experiments (Figs 4-6).
	SuiteOptions = exp.SuiteOptions
	// AppOptions configure the application experiments (Figs 7-11).
	AppOptions = exp.AppOptions
)

// PaperSuiteOptions returns the full-scale §IV.A configuration; expect
// minutes of compute. QuickSuiteOptions is the reduced variant.
func PaperSuiteOptions() SuiteOptions { return exp.PaperSuiteOptions() }

// QuickSuiteOptions returns a fast smoke-test configuration.
func QuickSuiteOptions() SuiteOptions { return exp.QuickSuiteOptions() }

// PaperAppOptions returns the full-scale §IV.B configuration.
func PaperAppOptions() AppOptions { return exp.PaperAppOptions() }

// QuickAppOptions returns a fast smoke-test configuration.
func QuickAppOptions() AppOptions { return exp.QuickAppOptions() }

// Fig4 regenerates Figure 4 (synthetic, CCR=0); variant 'a' or 'b'.
func Fig4(variant byte, o SuiteOptions) (Figure, error) { return exp.Fig4(variant, o) }

// Fig5 regenerates Figure 5 (synthetic, CCR=0.1 / 1); variant 'a' or 'b'.
func Fig5(variant byte, o SuiteOptions) (Figure, error) { return exp.Fig5(variant, o) }

// Fig6 regenerates Figure 6 (backfill vs no-backfill performance and
// scheduling times).
func Fig6(o SuiteOptions) (perf, times Figure, err error) { return exp.Fig6(o) }

// Fig7 returns DOT renderings of the application DAGs.
func Fig7(o AppOptions) (ccsdDOT, strassenDOT string, err error) { return exp.Fig7(o) }

// Fig8 regenerates Figure 8 (CCSD-T1, overlap / no overlap).
func Fig8(overlap bool, o AppOptions) (Figure, error) { return exp.Fig8(overlap, o) }

// Fig9 regenerates Figure 9 (Strassen, matrix size n).
func Fig9(n int, o AppOptions) (Figure, error) { return exp.Fig9(n, o) }

// Fig10 regenerates Figure 10 (scheduling times); app is "ccsd" or
// "strassen".
func Fig10(app string, o AppOptions) (Figure, error) { return exp.Fig10(app, o) }

// Fig11 regenerates Figure 11 (simulated actual execution of CCSD-T1).
func Fig11(o AppOptions) (Figure, error) { return exp.Fig11(o) }

// Extended runs the Figure 4/5-style comparison including the extra
// M-HEFT baseline this repository adds beyond the paper.
func Extended(o SuiteOptions) (Figure, error) { return exp.Extended(o) }

// SearchStatsFig profiles the LoC-MPS search layer across machine sizes:
// placement-engine runs, look-ahead steps, allocation-memo hit rate and
// incremental-resume accounting, averaged over the suite's graphs.
func SearchStatsFig(o SuiteOptions) (Figure, error) { return exp.SearchStatsFigure(o) }
