package benchgate

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// Bounds of the checks below. The ratio checks take their threshold from
// the caller (cmd/benchjson -gate-threshold).
const (
	// FloorNs exempts sub-millisecond latency pairs from the ratio checks:
	// a p99 that small is one preempted goroutine away from any ratio, so
	// gating it would only gate the host's scheduler.
	FloorNs = 1e6
	// WarmOverheadMax bounds the committed portfolio case absolutely: the
	// winner-routed warm p50 may cost at most 10% over the direct call to
	// the same engine, whatever the baseline recorded.
	WarmOverheadMax = 1.10
	// PortfolioSmokeMax is the smoke run's looser bound on the same ratio:
	// a smoke host is noisy and measures few reps.
	PortfolioSmokeMax = 1.25
	// StreamSpeedupMin is the floor on the steady streaming case's
	// incremental-vs-scratch search speedup, taken at bit-identical end
	// states.
	StreamSpeedupMin = 2.0
)

// HostLine prints one line when the file at path was recorded on a host
// with a different CPU count than this one, so that a timing comparison
// across hosts is never silent.
func HostLine(w io.Writer, path string, cpus int) {
	if n := runtime.NumCPU(); cpus != n {
		fmt.Fprintf(w, "%s was recorded on a %d-CPU host; this host has %d CPUs, so its timing ratios compare across hosts\n",
			path, cpus, n)
	}
}

// GateCase checks one re-measured scheduler case against its committed
// entry and prints its verdict line. Schedules are deterministic, so a
// changed makespan is a behaviour change, never noise; ns/op may not exceed
// threshold times the committed figure.
func GateCase(w io.Writer, name string, got, committed LocmpsResult, threshold float64) []string {
	ratio := got.NsPerOp / committed.NsPerOp
	status, fail := "ok", ""
	switch {
	case got.Makespan != committed.Makespan:
		status = "FAIL (makespan changed)"
		fail = fmt.Sprintf("%s: makespan %.6g, committed %.6g — schedule changed",
			name, got.Makespan, committed.Makespan)
	case ratio > threshold:
		status = "FAIL (slower)"
		fail = fmt.Sprintf("%s: %.0f ns/op is %.2fx the committed %.0f ns/op (threshold %.2fx)",
			name, got.NsPerOp, ratio, committed.NsPerOp, threshold)
	}
	fmt.Fprintf(w, "%-34s %14.0f ns/op  %5.2fx committed  %s\n", name, got.NsPerOp, ratio, status)
	return failed(fail)
}

// GatePortfolio checks one re-raced portfolio case against its committed
// entry and prints its verdict line. The race has no deadline, so its
// makespan and winner must reproduce exactly.
func GatePortfolio(w io.Writer, name string, got, committed PortfolioEntry) []string {
	status, fail := "ok", ""
	if got.PortfolioMakespan != committed.PortfolioMakespan || got.Winner != committed.Winner {
		status = "FAIL (portfolio changed)"
		fail = fmt.Sprintf("%s: portfolio %.6g/%s, committed %.6g/%s — race outcome changed",
			name, got.PortfolioMakespan, got.Winner, committed.PortfolioMakespan, committed.Winner)
	}
	fmt.Fprintf(w, "%-34s portfolio %.6g (winner %s)  %s\n", name, got.PortfolioMakespan, got.Winner, status)
	return failed(fail)
}

func failed(msg string) []string {
	if msg == "" {
		return nil
	}
	return []string{msg}
}

// CheckRace checks the selection invariant of one deadline-free race over
// the engines in race order: MinMakespan and the portfolio makespan are the
// per-engine minimum, and the winner is the argmin, ties going to the
// engine first in race order.
func CheckRace(order []string, e PortfolioEntry) error {
	argmin := ""
	for _, name := range order {
		if argmin == "" || e.EngineMakespans[name] < e.EngineMakespans[argmin] {
			argmin = name
		}
	}
	best := e.EngineMakespans[argmin]
	if e.MinMakespan != best {
		return fmt.Errorf("recorded minimum %.6g != per-engine minimum %.6g", e.MinMakespan, best)
	}
	if e.PortfolioMakespan != best {
		return fmt.Errorf("portfolio makespan %.6g != per-engine minimum %.6g", e.PortfolioMakespan, best)
	}
	if e.Winner != argmin {
		return fmt.Errorf("winner %s is not the argmin %s", e.Winner, argmin)
	}
	return nil
}

// ratio is one baseline-relative check of a committed file: a figure may
// not be more than threshold times worse than its baseline.
type ratio[R any] struct {
	field string
	get   func(R) float64
	// lower marks lower-is-better figures (latency), which gate current
	// against threshold × baseline; higher-is-better figures (rates,
	// speedups) gate baseline against threshold × current.
	lower bool
	// floor marks nanosecond latencies subject to FloorNs.
	floor bool
	// skip, when set, exempts a current entry from the check.
	skip func(R) bool
}

// checkRatios applies ratios to one case. A figure absent (zero) on either
// side is not gated.
func checkRatios[R any](path, name string, ratios []ratio[R], base, cur R, threshold float64) []string {
	var fails []string
	for _, m := range ratios {
		if m.skip != nil && m.skip(cur) {
			continue
		}
		b, c := m.get(base), m.get(cur)
		if b <= 0 || c <= 0 || m.floor && b < FloorNs && c < FloorNs {
			continue
		}
		worse := c / b
		if !m.lower {
			worse = b / c
		}
		if worse > threshold {
			fails = append(fails, fmt.Sprintf("%s: %s %s %.4g vs baseline %.4g is %.2fx worse (threshold %.2fx)",
				path, name, m.field, c, b, worse, threshold))
		}
	}
	return fails
}

// serveRatios are the figures of BENCH_serve.json gated against its
// baseline. quality_ratio is skipped when the deadline actually cut the
// search: the figure is then a function of how often the host preempted the
// worker inside the budget, which is scheduler noise, not a regression.
var serveRatios = []ratio[ServeResult]{
	{field: "warm_p99_ns", get: func(r ServeResult) float64 { return r.WarmP99Ns }, lower: true, floor: true},
	{field: "net_warm_p99_ns", get: func(r ServeResult) float64 { return r.NetWarmP99Ns }, lower: true, floor: true},
	{field: "hedged_p99_ns", get: func(r ServeResult) float64 { return r.HedgedP99Ns }, lower: true, floor: true},
	{field: "hit_speedup_x", get: func(r ServeResult) float64 { return r.HitSpeedupX }},
	{field: "cold_schedules_per_sec", get: func(r ServeResult) float64 { return r.ColdSchedPerSec }},
	{field: "quality_ratio", get: func(r ServeResult) float64 { return r.QualityRatio }, lower: true,
		skip: func(r ServeResult) bool { return r.Truncated }},
}

// serveAbsolute checks one serving case against WarmOverheadMax.
func serveAbsolute(path, name string, r ServeResult) []string {
	if r.WarmOverheadX > WarmOverheadMax {
		return []string{fmt.Sprintf("%s: %s warm_overhead_x %.3f exceeds the absolute bound %.2f",
			path, name, r.WarmOverheadX, WarmOverheadMax)}
	}
	return nil
}

// streamRatios are the figures of BENCH_stream.json gated against its
// baseline.
var streamRatios = []ratio[StreamResult]{
	{field: "resched_p50_ns", get: func(r StreamResult) float64 { return r.ReschedP50Ns }, lower: true, floor: true},
	{field: "resched_p99_ns", get: func(r StreamResult) float64 { return r.ReschedP99Ns }, lower: true, floor: true},
	{field: "incremental_search_ns", get: func(r StreamResult) float64 { return r.IncrementalSearchNs }, lower: true},
	{field: "replay_rate_eps", get: func(r StreamResult) float64 { return r.ReplayRateEPS }},
}

// streamRequired names the invariant flag each streaming case must carry.
// cmd/streamgen only records the flags true, so an absent or false flag
// means the file was edited or written by a broken run.
var streamRequired = map[string]struct {
	field string
	get   func(StreamResult) bool
}{
	"StreamSteadyPoisson": {"end_bit_identical", func(r StreamResult) bool { return r.EndBitIdentical }},
	"StreamT0Batch":       {"t0_match", func(r StreamResult) bool { return r.T0Match }},
	"StreamChurnFailures": {"audit_clean", func(r StreamResult) bool { return r.AuditClean }},
}

// streamSpeedupCase is the case that records speedup_x; in it the figure is
// required, so an absent or zero speedup fails the floor.
const streamSpeedupCase = "StreamSteadyPoisson"

// streamAbsolute checks one streaming case against the absolute bounds.
// Another case's speedup_x is checked only when it records one, and a
// recorded p50 needs a p99 at least as large.
func streamAbsolute(path, name string, r StreamResult) []string {
	var fails []string
	if req, ok := streamRequired[name]; ok && !req.get(r) {
		fails = append(fails, fmt.Sprintf("%s: %s %s is not true — invariant broken or file edited",
			path, name, req.field))
	}
	if (name == streamSpeedupCase || r.SpeedupX != 0) && r.SpeedupX < StreamSpeedupMin {
		fails = append(fails, fmt.Sprintf("%s: %s speedup_x %.2f below the absolute floor %.1fx",
			path, name, r.SpeedupX, StreamSpeedupMin))
	}
	if r.ReschedP50Ns > r.ReschedP99Ns {
		fails = append(fails, fmt.Sprintf("%s: %s resched_p50_ns %.4g exceeds resched_p99_ns %.4g",
			path, name, r.ReschedP50Ns, r.ReschedP99Ns))
	}
	return fails
}

// AuditServe audits the committed BENCH_serve.json at path: the serving
// benchmarks take minutes, so the gate does not re-measure them but checks
// the committed current snapshot against its own baseline and the absolute
// bounds. It prints one verdict line per case and returns the failures.
func AuditServe(w io.Writer, path string, threshold float64) ([]string, error) {
	return audit(w, path, "serve gate", threshold, serveRatios, serveAbsolute)
}

// AuditStream is AuditServe for the committed BENCH_stream.json.
func AuditStream(w io.Writer, path string, threshold float64) ([]string, error) {
	return audit(w, path, "stream gate", threshold, streamRatios, streamAbsolute)
}

// audit runs one committed file's checks. A missing file is fine (its suite
// may not have run on this checkout); a malformed one is an error. Absolute
// checks gate current alone, so they apply even to a case with no baseline
// yet.
func audit[R any](w io.Writer, path, gate string, threshold float64, ratios []ratio[R],
	absolute func(path, name string, r R) []string) ([]string, error) {
	f, found, err := Read[File[R]](path)
	if err != nil {
		return nil, err
	}
	if !found {
		fmt.Fprintf(w, "%-34s missing; %s skipped\n", path, gate)
		return nil, nil
	}
	HostLine(w, path, f.CPUs)
	var failures []string
	for _, name := range sortedKeys(f.Current) {
		cur := f.Current[name]
		fails := absolute(path, name, cur)
		base, ok := f.Baseline[name]
		if ok {
			fails = append(fails, checkRatios(path, name, ratios, base, cur, threshold)...)
		}
		status := "ok"
		if len(fails) > 0 {
			status = "FAIL"
		}
		if ok {
			fmt.Fprintf(w, "%-34s %s %s\n", name, gate, status)
		} else {
			fmt.Fprintf(w, "%-34s not in %s baseline; %s (absolute checks only)\n", name, path, status)
		}
		failures = append(failures, fails...)
	}
	for _, name := range f.Stale() {
		fmt.Fprintf(w, "warning: %s: %s baseline == current byte-for-byte (stale backfill); delete the file to re-baseline\n", path, name)
	}
	return failures, nil
}

// SmokeChecks validates what a loadgen smoke run asserts, given the names
// of its special cases: the cache must serve hits and hits must beat cold
// runs; the deadline-bounded anytime result must respect the certified
// lower bound and be no better than the full run; the portfolio case must
// pass PortfolioChecks; and the network layer must show its three wins —
// warm hits over HTTP, a hedging tail-latency cut, and a disk hit after a
// restart.
func SmokeChecks(current map[string]ServeResult, hitName, dlName, portName, netName, hedgeName, l2Name string) error {
	special := map[string]bool{hitName: true, dlName: true, portName: true, netName: true, hedgeName: true, l2Name: true}
	for _, name := range sortedKeys(current) {
		if r := current[name]; !special[name] && r.WarmSchedPerSec <= r.ColdSchedPerSec {
			return fmt.Errorf("%s: warm throughput %.2f/s did not beat cold %.2f/s",
				name, r.WarmSchedPerSec, r.ColdSchedPerSec)
		}
	}
	if hit := current[hitName]; hit.HitSpeedupX < 2 {
		return fmt.Errorf("%s: cache hit only %.1fx faster than cold", hitName, hit.HitSpeedupX)
	}
	dl := current[dlName]
	if dl.QualityRatio < 1 {
		return fmt.Errorf("%s: quality ratio %.4f below 1 — schedule beats the certified lower bound", dlName, dl.QualityRatio)
	}
	if dl.AnytimeMakespan < dl.FullMakespan*(1-1e-9) {
		return fmt.Errorf("%s: anytime makespan %.6g better than the full run's %.6g", dlName, dl.AnytimeMakespan, dl.FullMakespan)
	}
	if err := PortfolioChecks(current[portName], portName); err != nil {
		return err
	}
	net := current[netName]
	if net.NetWarmSchedPerSec <= net.NetColdSchedPerSec {
		return fmt.Errorf("%s: warm network throughput %.2f/s did not beat cold %.2f/s",
			netName, net.NetWarmSchedPerSec, net.NetColdSchedPerSec)
	}
	if net.NetVsInprocWarmX <= 0.02 {
		return fmt.Errorf("%s: warm network throughput is only %.1f%% of in-process",
			netName, 100*net.NetVsInprocWarmX)
	}
	hedge := current[hedgeName]
	if hedge.Hedges == 0 {
		return fmt.Errorf("%s: no hedges fired against a slow home node", hedgeName)
	}
	if hedge.HedgedP99Ns >= hedge.UnhedgedP99Ns {
		return fmt.Errorf("%s: hedged p99 %v no better than unhedged %v",
			hedgeName, time.Duration(hedge.HedgedP99Ns), time.Duration(hedge.UnhedgedP99Ns))
	}
	l2r := current[l2Name]
	if l2r.L2Hits == 0 {
		return fmt.Errorf("%s: restarted node served no disk hits", l2Name)
	}
	if l2r.HitSpeedupX < 2 {
		return fmt.Errorf("%s: disk hit only %.1fx faster than cold", l2Name, l2r.HitSpeedupX)
	}
	return nil
}

// PortfolioChecks validates the smoke run's portfolio case: the race
// committed a winner, the winner cache routed the repeats, and the routing
// overhead stays within PortfolioSmokeMax.
func PortfolioChecks(port ServeResult, portName string) error {
	if port.PortfolioWinner == "" {
		return fmt.Errorf("%s: race committed no winner", portName)
	}
	if port.WinnerHits == 0 {
		return fmt.Errorf("%s: no winner-cache hits", portName)
	}
	if port.WarmOverheadX > PortfolioSmokeMax {
		return fmt.Errorf("%s: winner-routed p50 is %.2fx the direct call (smoke bound %.2fx)",
			portName, port.WarmOverheadX, PortfolioSmokeMax)
	}
	return nil
}
