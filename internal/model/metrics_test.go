package model

import (
	"strings"
	"testing"
)

func TestRunMetricsRates(t *testing.T) {
	var zero RunMetrics
	if zero.CacheHitRate() != 0 || zero.SpeculationWasteRate() != 0 {
		t.Errorf("zero metrics should report zero rates, got %v / %v",
			zero.CacheHitRate(), zero.SpeculationWasteRate())
	}
	m := RunMetrics{CacheHits: 30, CacheMisses: 10, SpeculativeRuns: 8, SpeculativeWaste: 2}
	if got := m.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate = %v, want 0.75", got)
	}
	if got := m.SpeculationWasteRate(); got != 0.25 {
		t.Errorf("SpeculationWasteRate = %v, want 0.25", got)
	}
}

func TestRunMetricsString(t *testing.T) {
	m := RunMetrics{OuterIterations: 3, LookAheadSteps: 40, LoCBSRuns: 25,
		Commits: 2, Marks: 1, CacheHits: 15, CacheMisses: 25}
	s := m.String()
	for _, want := range []string{"outer=3", "locbs=25", "cache=15/40", "37.5% hit"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "resume=") {
		t.Errorf("String() = %q reports resume work with none recorded", s)
	}
	m.ResumedRuns, m.ReplayedTasks, m.RollbackDepth = 4, 30, 10
	if s := m.String(); !strings.Contains(s, "resume=4 replayed=30 rollback=10 (75.0% replay)") {
		t.Errorf("String() = %q, missing resume report", s)
	}
}
