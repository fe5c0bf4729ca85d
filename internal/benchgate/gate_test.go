package benchgate

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantFail checks a check's failures against the expected outcome: no
// failure for a passing row, and for a failing row one that names want.
func wantFail(t *testing.T, row string, fails []string, want string) {
	t.Helper()
	joined := strings.Join(fails, "\n")
	switch {
	case want == "" && len(fails) > 0:
		t.Errorf("%s: unexpected failure:\n%s", row, joined)
	case want != "" && !strings.Contains(joined, want):
		t.Errorf("%s: failures %q do not name %q", row, joined, want)
	}
}

func TestGateCase(t *testing.T) {
	committed := LocmpsResult{NsPerOp: 1e8, Makespan: 97.41385907234968}
	rows := []struct {
		name string
		got  LocmpsResult
		want string
	}{
		{"same makespan, same speed", LocmpsResult{NsPerOp: 1e8, Makespan: 97.41385907234968}, ""},
		{"changed makespan", LocmpsResult{NsPerOp: 1e8, Makespan: 97.41385907234969}, "schedule changed"},
		{"faster", LocmpsResult{NsPerOp: 0.5e8, Makespan: 97.41385907234968}, ""},
		{"slower within threshold", LocmpsResult{NsPerOp: 1.59e8, Makespan: 97.41385907234968}, ""},
		{"slower past threshold", LocmpsResult{NsPerOp: 1.61e8, Makespan: 97.41385907234968}, "threshold 1.60x"},
	}
	for _, r := range rows {
		var out bytes.Buffer
		fails := GateCase(&out, "Case", r.got, committed, 1.6)
		wantFail(t, r.name, fails, r.want)
		if verdict := map[bool]string{true: "ok", false: "FAIL"}[r.want == ""]; !strings.Contains(out.String(), verdict) {
			t.Errorf("%s: verdict line %q lacks %q", r.name, out.String(), verdict)
		}
	}
}

func TestGatePortfolio(t *testing.T) {
	committed := PortfolioEntry{PortfolioMakespan: 95.5194, Winner: "LoC-MPS"}
	rows := []struct {
		name string
		got  PortfolioEntry
		want string
	}{
		{"reproduced", PortfolioEntry{PortfolioMakespan: 95.5194, Winner: "LoC-MPS", RaceNs: 1}, ""},
		{"makespan drift", PortfolioEntry{PortfolioMakespan: 95.52, Winner: "LoC-MPS"}, "race outcome changed"},
		{"winner drift", PortfolioEntry{PortfolioMakespan: 95.5194, Winner: "DATA"}, "race outcome changed"},
	}
	for _, r := range rows {
		wantFail(t, r.name, GatePortfolio(&bytes.Buffer{}, "Case", r.got, committed), r.want)
	}
}

func TestCheckRace(t *testing.T) {
	order := []string{"LoC-MPS", "DATA", "TASK"}
	mk := map[string]float64{"LoC-MPS": 90, "DATA": 80, "TASK": 80}
	rows := []struct {
		name string
		e    PortfolioEntry
		want string
	}{
		{"winner is the first argmin", PortfolioEntry{EngineMakespans: mk, MinMakespan: 80, PortfolioMakespan: 80, Winner: "DATA"}, ""},
		{"tie goes to the later engine", PortfolioEntry{EngineMakespans: mk, MinMakespan: 80, PortfolioMakespan: 80, Winner: "TASK"}, "not the argmin DATA"},
		{"portfolio above the minimum", PortfolioEntry{EngineMakespans: mk, MinMakespan: 80, PortfolioMakespan: 90, Winner: "DATA"}, "portfolio makespan"},
		{"minimum misrecorded", PortfolioEntry{EngineMakespans: mk, MinMakespan: 90, PortfolioMakespan: 80, Winner: "DATA"}, "recorded minimum"},
	}
	for _, r := range rows {
		var fails []string
		if err := CheckRace(order, r.e); err != nil {
			fails = []string{err.Error()}
		}
		wantFail(t, r.name, fails, r.want)
	}
}

// auditRow is one committed-file audit case: a current entry under the
// case name, and its baseline unless noBase is set.
type auditRow[R any] struct {
	name      string
	caseName  string
	base, cur R
	noBase    bool
	want      string
}

func runAudit[R any](t *testing.T, audit func(w *bytes.Buffer, path string) ([]string, error), rows []auditRow[R]) {
	t.Helper()
	for _, r := range rows {
		f := File[R]{CPUs: 2, Baseline: map[string]R{}, Current: map[string]R{r.caseName: r.cur}}
		if !r.noBase {
			f.Baseline[r.caseName] = r.base
		}
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := Save(path, f); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		fails, err := audit(&out, path)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		wantFail(t, r.name, fails, r.want)
	}
}

func TestAuditServe(t *testing.T) {
	audit := func(w *bytes.Buffer, path string) ([]string, error) { return AuditServe(w, path, 1.6) }
	rows := []auditRow[ServeResult]{
		{name: "warm p99 doubled under the 1 ms floor", caseName: "W", base: ServeResult{WarmP99Ns: 58219}, cur: ServeResult{WarmP99Ns: 116438}},
		{name: "warm p99 doubled above the floor", caseName: "W", base: ServeResult{WarmP99Ns: 2e6}, cur: ServeResult{WarmP99Ns: 4e6}, want: "warm_p99_ns"},
		{name: "warm p99 crosses the floor", caseName: "W", base: ServeResult{WarmP99Ns: 58219}, cur: ServeResult{WarmP99Ns: 2e6}, want: "warm_p99_ns"},
		{name: "warm p99 1.5x above the floor", caseName: "W", base: ServeResult{WarmP99Ns: 2e6}, cur: ServeResult{WarmP99Ns: 3e6}},
		{name: "net warm p99 steady", caseName: "N", base: ServeResult{NetWarmP99Ns: 23e6}, cur: ServeResult{NetWarmP99Ns: 7e5}},
		{name: "net warm p99 doubled", caseName: "N", base: ServeResult{NetWarmP99Ns: 2e6}, cur: ServeResult{NetWarmP99Ns: 4e6}, want: "net_warm_p99_ns"},
		{name: "hedged p99 steady", caseName: "H", base: ServeResult{HedgedP99Ns: 6e6}, cur: ServeResult{HedgedP99Ns: 3.6e6}},
		{name: "hedged p99 doubled", caseName: "H", base: ServeResult{HedgedP99Ns: 3.6e6}, cur: ServeResult{HedgedP99Ns: 7.2e6}, want: "hedged_p99_ns"},
		{name: "hit speedup held", caseName: "S", base: ServeResult{HitSpeedupX: 20000}, cur: ServeResult{HitSpeedupX: 18000}},
		{name: "hit speedup halved", caseName: "S", base: ServeResult{HitSpeedupX: 20000}, cur: ServeResult{HitSpeedupX: 10000}, want: "hit_speedup_x"},
		{name: "cold throughput up", caseName: "C", base: ServeResult{ColdSchedPerSec: 10}, cur: ServeResult{ColdSchedPerSec: 14}},
		{name: "cold throughput halved", caseName: "C", base: ServeResult{ColdSchedPerSec: 10}, cur: ServeResult{ColdSchedPerSec: 5}, want: "cold_schedules_per_sec"},
		{name: "quality worse, search truncated", caseName: "D", base: ServeResult{QualityRatio: 1.2}, cur: ServeResult{QualityRatio: 4.9, Truncated: true}},
		{name: "quality worse, search complete", caseName: "D", base: ServeResult{QualityRatio: 1.2}, cur: ServeResult{QualityRatio: 4.9}, want: "quality_ratio"},
		{name: "warm overhead within bound", caseName: "P", base: ServeResult{WarmOverheadX: 1.0}, cur: ServeResult{WarmOverheadX: 1.09}},
		{name: "warm overhead past bound", caseName: "P", base: ServeResult{WarmOverheadX: 1.0}, cur: ServeResult{WarmOverheadX: 1.2}, want: "warm_overhead_x 1.200 exceeds"},
		{name: "warm overhead past bound, no baseline", caseName: "P", noBase: true, cur: ServeResult{WarmOverheadX: 1.2}, want: "warm_overhead_x"},
		{name: "ratios need a baseline", caseName: "C", noBase: true, cur: ServeResult{ColdSchedPerSec: 1}},
	}
	runAudit(t, audit, rows)
}

func TestAuditStream(t *testing.T) {
	audit := func(w *bytes.Buffer, path string) ([]string, error) { return AuditStream(w, path, 1.6) }
	steady := StreamResult{ReschedP50Ns: 33e6, ReschedP99Ns: 190e6, IncrementalSearchNs: 6.8e8, ReplayRateEPS: 254, SpeedupX: 2.79, EndBitIdentical: true}
	with := func(edit func(*StreamResult)) StreamResult {
		r := steady
		edit(&r)
		return r
	}
	rows := []auditRow[StreamResult]{
		{name: "steady case as committed", caseName: "StreamSteadyPoisson", base: steady, cur: steady},
		{name: "p50 doubled", caseName: "X", base: StreamResult{ReschedP50Ns: 30e6, ReschedP99Ns: 90e6}, cur: StreamResult{ReschedP50Ns: 60e6, ReschedP99Ns: 90e6}, want: "resched_p50_ns"},
		{name: "p50 doubled under the floor", caseName: "X", base: StreamResult{ReschedP50Ns: 3e5, ReschedP99Ns: 9e5}, cur: StreamResult{ReschedP50Ns: 6e5, ReschedP99Ns: 9e5}},
		{name: "p99 doubled", caseName: "X", base: StreamResult{ReschedP99Ns: 190e6}, cur: StreamResult{ReschedP99Ns: 380e6}, want: "resched_p99_ns"},
		{name: "incremental search doubled", caseName: "X", base: StreamResult{IncrementalSearchNs: 7e5}, cur: StreamResult{IncrementalSearchNs: 14e5}, want: "incremental_search_ns"},
		{name: "incremental search faster", caseName: "X", base: StreamResult{IncrementalSearchNs: 7e5}, cur: StreamResult{IncrementalSearchNs: 5e5}},
		{name: "replay rate halved", caseName: "X", base: StreamResult{ReplayRateEPS: 400}, cur: StreamResult{ReplayRateEPS: 200}, want: "replay_rate_eps"},
		{name: "replay rate held", caseName: "X", base: StreamResult{ReplayRateEPS: 400}, cur: StreamResult{ReplayRateEPS: 300}},
		{name: "end states differ", caseName: "StreamSteadyPoisson", base: steady, cur: with(func(r *StreamResult) { r.EndBitIdentical = false }), want: "end_bit_identical is not true"},
		{name: "t0 match held", caseName: "StreamT0Batch", base: StreamResult{T0Match: true}, cur: StreamResult{T0Match: true}},
		{name: "t0 match lost", caseName: "StreamT0Batch", base: StreamResult{T0Match: true}, cur: StreamResult{}, want: "t0_match"},
		{name: "audit clean held", caseName: "StreamChurnFailures", noBase: true, cur: StreamResult{AuditClean: true}},
		{name: "audit clean lost, no baseline", caseName: "StreamChurnFailures", noBase: true, cur: StreamResult{}, want: "audit_clean"},
		{name: "speedup under the floor", caseName: "StreamSteadyPoisson", base: steady, cur: with(func(r *StreamResult) { r.SpeedupX = 1.5 }), want: "speedup_x 1.50 below"},
		{name: "speedup zeroed", caseName: "StreamSteadyPoisson", base: steady, cur: with(func(r *StreamResult) { r.SpeedupX = 0 }), want: "speedup_x 0.00 below"},
		{name: "speedup absent in another case", caseName: "StreamT0Batch", base: StreamResult{T0Match: true}, cur: StreamResult{T0Match: true}},
		{name: "speedup under the floor in another case", caseName: "X", base: StreamResult{}, cur: StreamResult{SpeedupX: 1.5}, want: "speedup_x 1.50 below"},
		{name: "p99 zeroed", caseName: "StreamSteadyPoisson", base: steady, cur: with(func(r *StreamResult) { r.ReschedP99Ns = 0 }), want: "exceeds resched_p99_ns 0"},
		{name: "p50 above p99", caseName: "StreamSteadyPoisson", base: steady, cur: with(func(r *StreamResult) { r.ReschedP50Ns = 200e6 }), want: "exceeds resched_p99_ns"},
		{name: "p50 equals p99", caseName: "X", base: StreamResult{}, cur: StreamResult{ReschedP50Ns: 5e6, ReschedP99Ns: 5e6}},
	}
	runAudit(t, audit, rows)
}

func TestAuditMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	fails, err := AuditServe(&out, filepath.Join(dir, "BENCH_serve.json"), 1.6)
	if err != nil || fails != nil || !strings.Contains(out.String(), "missing; serve gate skipped") {
		t.Fatalf("missing file: fails=%v err=%v out=%q, want a skip line", fails, err, out.String())
	}
	bad := filepath.Join(dir, "BENCH_stream.json")
	if err := os.WriteFile(bad, []byte(`{"current": {"StreamT0Batch": {"t0_match": tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AuditStream(&out, bad, 1.6); err == nil {
		t.Fatal("truncated file audited without error")
	}
}

func TestAuditFlagsStaleAndForeignHost(t *testing.T) {
	f := File[ServeResult]{
		CPUs:     -1,
		Baseline: map[string]ServeResult{"A": {Workers: 1}},
		Current:  map[string]ServeResult{"A": {Workers: 1}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := AuditServe(&out, path, 1.6); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"recorded on a -1-CPU host", "warning: " + path + ": A baseline == current"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("audit output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestSmokeChecks(t *testing.T) {
	good := map[string]ServeResult{
		"W1":    {ColdSchedPerSec: 10, WarmSchedPerSec: 40000},
		"Hit":   {HitSpeedupX: 500},
		"DL":    {QualityRatio: 1.3, AnytimeMakespan: 60, FullMakespan: 52},
		"Port":  {PortfolioWinner: "M-HEFT", WinnerHits: 3, WarmOverheadX: 1.05},
		"Net":   {NetColdSchedPerSec: 1, NetWarmSchedPerSec: 9000, NetVsInprocWarmX: 0.4},
		"Hedge": {Hedges: 6, UnhedgedP99Ns: 33e6, HedgedP99Ns: 3e6},
		"L2":    {L2Hits: 1, HitSpeedupX: 500},
	}
	rows := []struct {
		name string
		edit func(map[string]ServeResult)
		want string
	}{
		{"all invariants hold", func(map[string]ServeResult) {}, ""},
		{"warm no faster than cold", func(m map[string]ServeResult) { m["W1"] = ServeResult{ColdSchedPerSec: 10, WarmSchedPerSec: 10} }, "W1: warm throughput"},
		{"cache hit barely faster", func(m map[string]ServeResult) { m["Hit"] = ServeResult{HitSpeedupX: 1.5} }, "Hit: cache hit"},
		{"schedule under the lower bound", func(m map[string]ServeResult) { m["DL"] = ServeResult{QualityRatio: 0.9} }, "below 1"},
		{"anytime beats the full run", func(m map[string]ServeResult) {
			m["DL"] = ServeResult{QualityRatio: 1.1, AnytimeMakespan: 50, FullMakespan: 52}
		}, "better than the full run"},
		{"portfolio without a winner", func(m map[string]ServeResult) { m["Port"] = ServeResult{WinnerHits: 3} }, "no winner"},
		{"network warm no faster than cold", func(m map[string]ServeResult) {
			m["Net"] = ServeResult{NetColdSchedPerSec: 2, NetWarmSchedPerSec: 2, NetVsInprocWarmX: 0.4}
		}, "warm network throughput"},
		{"network warm a sliver of in-process", func(m map[string]ServeResult) {
			m["Net"] = ServeResult{NetColdSchedPerSec: 1, NetWarmSchedPerSec: 90, NetVsInprocWarmX: 0.01}
		}, "of in-process"},
		{"no hedges fired", func(m map[string]ServeResult) { m["Hedge"] = ServeResult{UnhedgedP99Ns: 33e6, HedgedP99Ns: 3e6} }, "no hedges"},
		{"hedging no faster", func(m map[string]ServeResult) {
			m["Hedge"] = ServeResult{Hedges: 6, UnhedgedP99Ns: 3e6, HedgedP99Ns: 3e6}
		}, "no better than unhedged"},
		{"no disk hits", func(m map[string]ServeResult) { m["L2"] = ServeResult{HitSpeedupX: 500} }, "no disk hits"},
		{"disk hit barely faster", func(m map[string]ServeResult) { m["L2"] = ServeResult{L2Hits: 1, HitSpeedupX: 1.5} }, "disk hit only"},
	}
	for _, r := range rows {
		m := map[string]ServeResult{}
		for k, v := range good {
			m[k] = v
		}
		r.edit(m)
		var fails []string
		if err := SmokeChecks(m, "Hit", "DL", "Port", "Net", "Hedge", "L2"); err != nil {
			fails = []string{err.Error()}
		}
		wantFail(t, r.name, fails, r.want)
	}
}

func TestPortfolioChecks(t *testing.T) {
	rows := []struct {
		name string
		port ServeResult
		want string
	}{
		{"routed within the smoke bound", ServeResult{PortfolioWinner: "DATA", WinnerHits: 48, WarmOverheadX: 1.24}, ""},
		{"no winner", ServeResult{WinnerHits: 48, WarmOverheadX: 1}, "no winner"},
		{"no winner-cache hits", ServeResult{PortfolioWinner: "DATA", WarmOverheadX: 1}, "no winner-cache hits"},
		{"routed past the smoke bound", ServeResult{PortfolioWinner: "DATA", WinnerHits: 48, WarmOverheadX: 1.26}, "smoke bound 1.25x"},
	}
	for _, r := range rows {
		var fails []string
		if err := PortfolioChecks(r.port, "Port"); err != nil {
			fails = []string{err.Error()}
		}
		wantFail(t, r.name, fails, r.want)
	}
}
