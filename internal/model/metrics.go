package model

import (
	"fmt"
	"strings"
)

// RunMetrics is a scheduler-run snapshot of the work the LoC-MPS search
// layer performed: how the bounded look-ahead explored the allocation
// space, how often the allocation-vector memo table short-circuited a
// placement run, and how much placement work incremental resume absorbed.
// It lives in internal/model so that experiment drivers and the command
// line tools can report it without depending on the scheduler package.
type RunMetrics struct {
	// OuterIterations counts repeat-until rounds (Algorithm 1 steps 5-40).
	OuterIterations int
	// LookAheadSteps counts inner look-ahead iterations across all rounds.
	LookAheadSteps int
	// LoCBSRuns counts actual placement-engine invocations; memo hits do
	// not re-run the engine.
	LoCBSRuns int
	// Commits counts rounds that improved the committed best schedule.
	Commits int
	// Marks counts entry points marked as bad starting points.
	Marks int
	// CacheHits counts search-path allocation vectors answered from the
	// memo table instead of a fresh LoCBS run.
	CacheHits int
	// CacheMisses counts search-path memo lookups that required a run.
	CacheMisses int
	// SpeculativeRuns, SpeculativeWaste and PrunedRuns are always zero:
	// the search evaluates only the §III.C winner, so no run is
	// speculative, wasted or pruned. They remain for readers that still
	// report them.
	SpeculativeRuns  int
	SpeculativeWaste int
	PrunedRuns       int
	// ReplayedTasks counts task placements replayed from a resumed run's
	// checkpoint trace instead of being searched against the chart.
	ReplayedTasks int
	// ResumedRuns counts placement runs that resumed from a non-empty
	// prefix of the previous run on the same scratch.
	ResumedRuns int
	// RollbackDepth accumulates, over all resumed runs, how many traced
	// placement steps were rolled back at the first divergent position.
	RollbackDepth int
	// Deprecated: ProbeFanouts and ProbeSlots are always zero. LoCBS scans
	// its candidate slots serially, so nothing fans out. They remain only
	// because the frozen e2ebench module still reports them.
	ProbeFanouts int
	ProbeSlots   int
}

// ReplayRate is the fraction of traced placement work served by replay:
// replayed/(replayed+rolled back), in [0,1]; zero when nothing resumed.
func (m RunMetrics) ReplayRate() float64 {
	total := m.ReplayedTasks + m.RollbackDepth
	if total == 0 {
		return 0
	}
	return float64(m.ReplayedTasks) / float64(total)
}

// CacheHitRate is hits/(hits+misses) of the memo table, in [0,1]; zero when
// no lookups happened (memo disabled or empty run).
func (m RunMetrics) CacheHitRate() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// SpeculationWasteRate is the fraction of speculative runs that were never
// reused, in [0,1]; zero when nothing was speculated, which is always for
// metrics reported by the search.
func (m RunMetrics) SpeculationWasteRate() float64 {
	if m.SpeculativeRuns == 0 {
		return 0
	}
	return float64(m.SpeculativeWaste) / float64(m.SpeculativeRuns)
}

// String renders a compact single-line report suitable for logs and tool
// output.
func (m RunMetrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "outer=%d lookahead=%d locbs=%d commits=%d marks=%d",
		m.OuterIterations, m.LookAheadSteps, m.LoCBSRuns, m.Commits, m.Marks)
	fmt.Fprintf(&b, " cache=%d/%d (%.1f%% hit)", m.CacheHits, m.CacheHits+m.CacheMisses, 100*m.CacheHitRate())
	if m.ResumedRuns > 0 {
		fmt.Fprintf(&b, " resume=%d replayed=%d rollback=%d (%.1f%% replay)",
			m.ResumedRuns, m.ReplayedTasks, m.RollbackDepth, 100*m.ReplayRate())
	}
	return b.String()
}
