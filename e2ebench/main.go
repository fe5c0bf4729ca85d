// Command e2ebench is the repository's end-to-end benchmark. It drives one
// of three workloads against this module's scheduling stack and prints one
// JSON result line last:
//
//	cold    distinct DAGs over HTTP, closed loop: every request runs a full
//	        LoC-MPS search
//	zipf    Zipf-distributed repeats of primed keys over HTTP, open loop at
//	        fixed stepped rates, with a trickle of never-seen keys
//	stream  the open-loop streaming rescheduler (stream.Sim.Step) over
//	        Poisson job streams with task failures and a shrink/grow
//
// A plain run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around the layers' public calls and reports
// per-layer metrics. Every schedule the benchmark receives is decoded and
// audited; any failure makes the run exit non-zero. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is kept
// for checking a later claim on inputs nobody tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// decl is a declared metric: its name and unit.
type decl struct{ Name, Unit string }

// endToEnd and perLayer are the declared metrics of the two modes, in
// output order. Every workload reports all of them, and BENCHMARK.json
// declares the same lists.
var endToEnd = []decl{
	{"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"}, {"throughput_per_s", "1/s"},
	{"makespan_vs_lb", "ratio"}, {"peak_heap_mb", "MB"}, {"setup_s", "s"},
}

var perLayer = []decl{
	{"httpserve.handler_pct", "%"}, {"httpserve.transport_pct", "%"}, {"httpserve.resp_hit_ratio", "ratio"},
	{"httpserve.shed", "count"}, {"httpserve.bytes_in_per_req", "bytes"}, {"httpserve.bytes_out_per_req", "bytes"},
	{"wire.json_decode_pct", "%"}, {"wire.to_request_pct", "%"}, {"wire.encode_pct", "%"},
	{"fingerprint.pct", "%"},
	{"service.schedule_pct", "%"}, {"service.hits", "count"}, {"service.coalesced", "count"},
	{"service.scheduled", "count"}, {"service.rejected", "count"}, {"service.coalesce_ratio", "ratio"},
	{"service.shared_state_hit_ratio", "ratio"},
	{"core.search_ms", "ms"}, {"core.outer_iterations", "per_search"}, {"core.lookahead_steps", "per_search"},
	{"core.locbs_runs", "per_search"}, {"core.ns_per_locbs_run", "ns"}, {"core.memo_hit_ratio", "ratio"},
	{"core.replay_ratio", "ratio"}, {"core.speculative_waste_ratio", "ratio"}, {"core.pruned_runs", "per_search"},
	{"core.probe_fanouts", "per_search"}, {"core.probe_slots", "per_search"},
	{"audit.check_ms", "ms"}, {"audit.violations", "count"},
	{"stream.search_step_pct", "%"}, {"stream.fast_step_pct", "%"}, {"stream.remap_step_pct", "%"},
	{"stream.searches", "per_stream"}, {"stream.fast_paths", "per_stream"}, {"stream.remaps", "per_stream"},
	{"stream.fast_path_ratio", "ratio"}, {"stream.active_tasks_p50", "tasks"},
	{"trace.overhead_pct", "%"}, {"trace.unexplained_pct", "%"},
}

// opts are the command-line settings every workload receives.
type opts struct {
	Seed    int64
	Seconds float64
}

type workload struct {
	plain, traced func(opts) (*report, error)
}

var workloads = map[string]workload{
	"cold":   {runCold, traceCold},
	"zipf":   {runZipf, traceZipf},
	"stream": {runStream, traceStream},
}

func main() {
	name := flag.String("workload", "", "workload: cold, zipf or stream")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := flag.Float64("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's span dump (empty: no dump)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload cold|zipf|stream [--seed n] [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}
	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	run := wl.plain
	want := endToEnd
	if *trace == 1 {
		run, want = wl.traced, perLayer
	}
	started := time.Now()
	rep, err := run(opts{Seed: *seed, Seconds: *seconds})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := sameDecls(rep.decls(), want); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.printTable(os.Stdout)
	if *trace == 1 && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, env, rep.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.Spans), path)
	}
	fmt.Printf("wall %.1fs\n", time.Since(started).Seconds())
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// sameDecls reports a mismatch between the metrics a run produced (or a
// file declares) and a declared list: a missing or extra name, or a unit
// that differs.
func sameDecls(got, want []decl) error {
	unit := map[string]string{}
	for _, d := range want {
		unit[d.Name] = d.Unit
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics, want %d: %v", len(got), len(want), got)
	}
	for _, d := range got {
		u, ok := unit[d.Name]
		if !ok {
			return fmt.Errorf("undeclared metric %q", d.Name)
		}
		if u != d.Unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, d.Unit, u)
		}
		delete(unit, d.Name)
	}
	return nil
}
