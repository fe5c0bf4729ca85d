// Command experiments regenerates the paper's evaluation figures as text
// tables or CSV.
//
// Usage:
//
//	experiments -fig all            # every figure at quick scale
//	experiments -fig 5b -full       # one figure at full paper scale
//	experiments -fig 8a -csv        # CSV instead of a table
//
// Figure ids: 4a 4b 5a 5b 6 7 8a 8b 9a 9b 10a 10b 11 stats ablation (or
// "all"). Quick scale completes in seconds to a couple of minutes; -full
// mirrors the paper (30 graphs, up to 128 processors) and can take tens of
// minutes on one core.
//
// -workers bounds how many scheduler cells run concurrently; it defaults to
// GOMAXPROCS (one worker per CPU) and must be at least 1. Figures are
// deterministic for any worker count — the flag only trades wall-clock time
// for parallelism.
//
// -cpuprofile / -memprofile write pprof profiles of the run for
// `go tool pprof` (see also `make profile` for the benchmark binaries).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"locmps"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate (4a 4b 5a 5b 6 7 8a 8b 9a 9b 10a 10b 11 portfolio stats ablation or all)")
		portfolio  = flag.Bool("portfolio", false, "shorthand for -fig portfolio: race the engine portfolio against every single engine and tally per-instance winners")
		full       = flag.Bool("full", false, "paper-scale parameters (slow) instead of quick ones")
		csv        = flag.Bool("csv", false, "emit CSV instead of text tables")
		out        = flag.String("out", "", "also write each figure as <id>.csv into this directory")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler cells run concurrently (defaults to GOMAXPROCS, i.e. one per CPU; 1 = serial); must be at least 1, output is identical for any value")
		useServe   = flag.Bool("serve", true, "route scheduler runs through the scheduling service (result cache + worker pool); figures are identical either way")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	if *portfolio {
		*fig = "portfolio"
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -workers must be at least 1 (got %d); omit the flag to use one worker per CPU (GOMAXPROCS, currently %d)\n",
			*workers, runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	if err := profiled(*cpuprofile, *memprofile, func() error {
		return run(*fig, *full, *csv, *out, *workers, *useServe)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// profiled wraps fn with optional CPU and heap profiling. The heap profile
// is taken after a GC so it reflects live retention, not transient garbage.
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func run(fig string, full, csv bool, outDir string, workers int, useServe bool) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	suite := locmps.QuickSuiteOptions()
	app := locmps.QuickAppOptions()
	if full {
		suite = locmps.PaperSuiteOptions()
		app = locmps.PaperAppOptions()
	}
	suite.Workers = workers
	app.Workers = workers
	if useServe {
		svc := locmps.NewService(locmps.ServiceConfig{
			Workers:      workers,
			QueueDepth:   2*workers + 8,
			CacheEntries: 4096,
		})
		defer func() {
			svc.Close()
			st := svc.Stats()
			fmt.Fprintf(os.Stderr,
				"service: %d requests, %d cold runs, %d cache hits, %d coalesced, p50 %v, p99 %v\n",
				st.Requests, st.Scheduled, st.CacheHits, st.Coalesced, st.P50, st.P99)
		}()
		suite.Service = svc
		app.Service = svc
	}

	ids := []string{fig}
	if fig == "all" {
		ids = []string{"4a", "4b", "5a", "5b", "6", "7", "8a", "8b", "9a", "9b", "10a", "10b", "11", "extended", "portfolio", "stats", "ablation"}
	}
	for _, id := range ids {
		if err := runOne(id, suite, app, csv, outDir); err != nil {
			return fmt.Errorf("fig %s: %w", id, err)
		}
	}
	return nil
}

func runOne(id string, suite locmps.SuiteOptions, app locmps.AppOptions, csv bool, outDir string) error {
	var emitErr error
	emit := func(f locmps.Figure) {
		if csv {
			fmt.Printf("# %s: %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Println(f.Table())
		}
		if outDir != "" && emitErr == nil {
			emitErr = os.WriteFile(filepath.Join(outDir, f.ID+".csv"), []byte(f.CSV()), 0o644)
		}
	}
	switch id {
	case "4a", "4b":
		f, err := locmps.Fig4(id[1], suite)
		if err != nil {
			return err
		}
		emit(f)
	case "5a", "5b":
		f, err := locmps.Fig5(id[1], suite)
		if err != nil {
			return err
		}
		emit(f)
	case "6":
		perf, times, err := locmps.Fig6(suite)
		if err != nil {
			return err
		}
		emit(perf)
		emit(times)
	case "7":
		ccsd, strassen, err := locmps.Fig7(app)
		if err != nil {
			return err
		}
		fmt.Println("// fig7a: CCSD-T1 task graph")
		fmt.Println(ccsd)
		fmt.Println("// fig7b: Strassen task graph")
		fmt.Println(strassen)
	case "8a":
		f, err := locmps.Fig8(true, app)
		if err != nil {
			return err
		}
		emit(f)
	case "8b":
		f, err := locmps.Fig8(false, app)
		if err != nil {
			return err
		}
		emit(f)
	case "9a":
		f, err := locmps.Fig9(1024, app)
		if err != nil {
			return err
		}
		emit(f)
	case "9b":
		f, err := locmps.Fig9(4096, app)
		if err != nil {
			return err
		}
		emit(f)
	case "10a":
		f, err := locmps.Fig10("ccsd", app)
		if err != nil {
			return err
		}
		emit(f)
	case "10b":
		f, err := locmps.Fig10("strassen", app)
		if err != nil {
			return err
		}
		emit(f)
	case "11":
		f, err := locmps.Fig11(app)
		if err != nil {
			return err
		}
		emit(f)
	case "extended":
		s := suite
		s.CCR = 0.1
		f, err := locmps.Extended(s)
		if err != nil {
			return err
		}
		emit(f)
	case "portfolio":
		s := suite
		s.CCR = 0.1
		f, err := locmps.PortfolioFig(s)
		if err != nil {
			return err
		}
		emit(f)
		tally, err := locmps.PortfolioWinners(s)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(tally))
		for n := range tally {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("// portfolio winners by (graph, P) cell:")
		for _, n := range names {
			fmt.Printf("//   %-12s %d\n", n, tally[n])
		}
	case "stats":
		s := suite
		s.CCR = 0.1
		f, err := locmps.SearchStatsFig(s)
		if err != nil {
			return err
		}
		emit(f)
	case "ablation":
		o := locmps.DefaultAblationOptions()
		o.Suite.Graphs = 4
		o.Procs = 16
		perf, times, err := locmps.AblateLookAhead(o, nil)
		if err != nil {
			return err
		}
		emit(perf)
		emit(times)
		perf, _, err = locmps.AblateCandidateWindow(o, nil)
		if err != nil {
			return err
		}
		emit(perf)
		mech, err := locmps.AblateMechanisms(o)
		if err != nil {
			return err
		}
		emit(mech)
		perf, _, err = locmps.AblateBlockSize(o, nil)
		if err != nil {
			return err
		}
		emit(perf)
	default:
		return fmt.Errorf("unknown figure id %q", id)
	}
	return emitErr
}
