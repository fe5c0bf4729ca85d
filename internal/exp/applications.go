package exp

import (
	"fmt"
	"strings"

	"locmps/internal/apps"
	"locmps/internal/model"
	"locmps/internal/sched"
	"locmps/internal/schedule"
	"locmps/internal/serve"
	"locmps/internal/sim"
)

// AppOptions configure the application experiments (Figs 7-11).
type AppOptions struct {
	// Procs is the machine-size sweep (the paper uses 4-128 for CCSD-T1).
	Procs []int
	// Overlap selects the system model for the figures that fix it.
	Overlap bool
	// CCSD sizes the tensor-contraction problem.
	CCSD apps.CCSDParams
	// StrassenN is the matrix size for Figure 9.
	StrassenN int
	// Noise and Seed drive Figure 11's simulated execution.
	Noise float64
	Seed  int64
	// Workers bounds the number of (algorithm, P) cells scheduled
	// concurrently: 0 uses one worker per CPU, 1 runs serially. Results are
	// identical for any value — only wall-clock time changes.
	Workers int
	// Service, when non-nil, routes every scheduler run through the
	// scheduling service (result cache, coalescing, worker pool). Figures
	// are unchanged: the service is bit-identical to direct runs.
	Service *serve.Service
}

// measure returns the Measure the application figures use (see
// SuiteOptions.measure).
func (o AppOptions) measure() Measure { return serviceMeasure(o.Service) }

// PaperAppOptions mirrors §IV.B.
func PaperAppOptions() AppOptions {
	return AppOptions{
		Procs:     []int{4, 8, 16, 32, 64, 128},
		Overlap:   true,
		CCSD:      apps.DefaultCCSDParams(),
		StrassenN: 1024,
		Noise:     0.15,
		Seed:      2006,
	}
}

// QuickAppOptions is a reduced configuration for tests and smoke runs.
func QuickAppOptions() AppOptions {
	o := PaperAppOptions()
	o.Procs = []int{4, 8, 16}
	o.CCSD = apps.CCSDParams{O: 16, V: 64}
	return o
}

func (o AppOptions) validate() error {
	if len(o.Procs) == 0 {
		return fmt.Errorf("exp: empty processor sweep")
	}
	for _, p := range o.Procs {
		if p < 1 {
			return fmt.Errorf("exp: invalid processor count %d", p)
		}
	}
	return nil
}

// Fig7 returns the DOT renderings of the two application DAGs (the paper's
// Figure 7 shows their structure).
func Fig7(o AppOptions) (ccsdDOT, strassenDOT string, err error) {
	ccsd, err := apps.CCSDT1(o.CCSD)
	if err != nil {
		return "", "", err
	}
	n := o.StrassenN
	if n == 0 {
		n = 1024
	}
	str, err := apps.Strassen(n)
	if err != nil {
		return "", "", err
	}
	var b1, b2 strings.Builder
	if err := ccsd.WriteDOT(&b1, "CCSD-T1"); err != nil {
		return "", "", err
	}
	if err := str.WriteDOT(&b2, fmt.Sprintf("Strassen-%d", n)); err != nil {
		return "", "", err
	}
	return b1.String(), b2.String(), nil
}

// Fig8 reproduces Figure 8: CCSD-T1 relative performance across machine
// sizes, under (a) overlapped and (b) non-overlapped computation and
// communication. Pass overlap accordingly.
func Fig8(overlap bool, o AppOptions) (Figure, error) {
	if err := o.validate(); err != nil {
		return Figure{}, err
	}
	tg, err := apps.CCSDT1(o.CCSD)
	if err != nil {
		return Figure{}, err
	}
	variant := "a"
	title := "CCSD-T1, overlap of computation and communication"
	if !overlap {
		variant = "b"
		title = "CCSD-T1, no overlap of computation and communication"
	}
	cluster := func(p int) model.Cluster { return apps.CCSDCluster(p, overlap) }
	return relativePerformance("fig8"+variant, title,
		[]*model.TaskGraph{tg}, sched.All(), o.Procs, cluster, o.measure(), o.Workers)
}

// Fig9 reproduces Figure 9: Strassen matrix multiplication for the given
// matrix size (1024 for variant (a), 4096 for (b)).
func Fig9(n int, o AppOptions) (Figure, error) {
	if err := o.validate(); err != nil {
		return Figure{}, err
	}
	tg, err := apps.Strassen(n)
	if err != nil {
		return Figure{}, err
	}
	cluster := func(p int) model.Cluster { return apps.StrassenCluster(p, o.Overlap) }
	return relativePerformance(fmt.Sprintf("fig9-%d", n),
		fmt.Sprintf("Strassen %dx%d", n, n),
		[]*model.TaskGraph{tg}, sched.All(), o.Procs, cluster, o.measure(), o.Workers)
}

// Fig10 reproduces Figure 10: wall-clock scheduling times of every
// algorithm. app is "ccsd" (variant a) or "strassen" (variant b).
func Fig10(app string, o AppOptions) (Figure, error) {
	if err := o.validate(); err != nil {
		return Figure{}, err
	}
	var tg *model.TaskGraph
	var err error
	var id, title string
	switch app {
	case "ccsd":
		tg, err = apps.CCSDT1(o.CCSD)
		id, title = "fig10a", "scheduling times, CCSD-T1"
	case "strassen":
		n := o.StrassenN
		if n == 0 {
			n = 1024
		}
		tg, err = apps.Strassen(n)
		id, title = "fig10b", fmt.Sprintf("scheduling times, Strassen %d", n)
	default:
		return Figure{}, fmt.Errorf("exp: Fig10 app %q (want ccsd or strassen)", app)
	}
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{ID: id, Title: title, XLabel: "procs", YLabel: "scheduling time (s)"}
	algs := sched.All()
	secs := make([]float64, len(algs)*len(o.Procs))
	err = parallelFor(o.Workers, len(secs), func(idx int) error {
		ai, pi := idx/len(o.Procs), idx%len(o.Procs)
		s, err := scheduleVia(o.Service, algs[ai], tg, apps.CCSDCluster(o.Procs[pi], o.Overlap))
		if err != nil {
			return err
		}
		secs[idx] = s.SchedulingTime.Seconds()
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	for ai, alg := range algs {
		series := Series{Name: alg.Name()}
		for pi, p := range o.Procs {
			series.Points = append(series.Points, Point{X: float64(p), Y: secs[ai*len(o.Procs)+pi]})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Fig11 reproduces Figure 11: the "actual execution" of CCSD-T1. Every
// algorithm's schedule is run through the discrete-event cluster simulator
// with multiplicative runtime noise, and relative performance is computed
// from the executed (not planned) makespans.
func Fig11(o AppOptions) (Figure, error) {
	if err := o.validate(); err != nil {
		return Figure{}, err
	}
	tg, err := apps.CCSDT1(o.CCSD)
	if err != nil {
		return Figure{}, err
	}
	measure := func(alg schedule.Engine, g *model.TaskGraph, c model.Cluster) (float64, error) {
		s, err := scheduleVia(o.Service, alg, g, c)
		if err != nil {
			return 0, err
		}
		res, err := sim.Execute(g, s, sim.Options{Noise: o.Noise, Seed: o.Seed})
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}
	cluster := func(p int) model.Cluster { return apps.CCSDCluster(p, o.Overlap) }
	return relativePerformance("fig11", "CCSD-T1 actual (simulated) execution",
		[]*model.TaskGraph{tg}, sched.All(), o.Procs, cluster, measure, o.Workers)
}
