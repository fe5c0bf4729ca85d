package speedup

import (
	"fmt"
	"math"
)

// FitDowney fits Downey-model parameters (A, sigma) to a measured
// execution-time profile (times[i] = time on i+1 processors), the inverse
// of the profiling workflow the paper uses for its application tasks: the
// cluster measurements become an analytic curve usable at processor counts
// that were never profiled.
//
// The fit minimizes the sum of squared log-time residuals (relative errors
// matter more than absolute ones across the orders of magnitude a speedup
// curve spans) with a coarse grid search refined by coordinate descent.
// T1 is taken directly from the measurement on one processor.
func FitDowney(times []float64) (Downey, error) {
	tbl, err := NewTable(times)
	if err != nil {
		return Downey{}, fmt.Errorf("speedup: fitting: %w", err)
	}
	n := tbl.Len()
	t1 := tbl.Time(1)
	if n == 1 {
		// A single sample carries no scalability information: a serial
		// task is the only safe interpretation.
		return Downey{T1: t1, A: 1, Sigma: 0}, nil
	}

	loss := func(a, sigma float64) float64 {
		d := Downey{T1: t1, A: a, Sigma: sigma}
		var sum float64
		for p := 1; p <= n; p++ {
			r := math.Log(d.Time(p)) - math.Log(tbl.Time(p))
			sum += r * r
		}
		return sum
	}

	// Coarse grid: A in [1, 4n] geometric, sigma in [0, 4] linear. The
	// loss is piecewise with kinks where the curve meets its plateau, so
	// a coarser grid can seed the descent in the wrong valley.
	bestA, bestS := 1.0, 0.0
	bestL := loss(bestA, bestS)
	for a := 1.0; a <= 4*float64(n); a *= 1.1 {
		for s := 0.0; s <= 4.0; s += 0.125 {
			if l := loss(a, s); l < bestL {
				bestA, bestS, bestL = a, s, l
			}
		}
	}
	// Coordinate descent refinement, kept inside the grid's sigma range:
	// past it the loss can keep creeping down along a ridge that leads
	// away from the sampled curve (sigma 11.5 for a sigma 1.56 truth).
	stepA, stepS := bestA/4, 0.125
	for iter := 0; iter < 60; iter++ {
		improved := false
		for _, cand := range [4][2]float64{
			{bestA + stepA, bestS}, {math.Max(1, bestA-stepA), bestS},
			{bestA, math.Min(4, bestS+stepS)}, {bestA, math.Max(0, bestS-stepS)},
		} {
			if l := loss(cand[0], cand[1]); l < bestL {
				bestA, bestS, bestL = cand[0], cand[1], l
				improved = true
			}
		}
		if !improved {
			stepA /= 2
			stepS /= 2
			if stepA < 1e-4 && stepS < 1e-4 {
				break
			}
		}
	}
	return Downey{T1: t1, A: bestA, Sigma: bestS}, nil
}

// FitError reports the maximum relative error of a profile against a
// measured table, a quick goodness-of-fit check.
func FitError(prof Profile, times []float64) (float64, error) {
	tbl, err := NewTable(times)
	if err != nil {
		return 0, err
	}
	var worst float64
	for p := 1; p <= tbl.Len(); p++ {
		e := math.Abs(prof.Time(p)-tbl.Time(p)) / tbl.Time(p)
		if e > worst {
			worst = e
		}
	}
	return worst, nil
}
