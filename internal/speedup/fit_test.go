package speedup

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitDowneyRecoversKnownCurve(t *testing.T) {
	truth := Downey{T1: 50, A: 12, Sigma: 0.75}
	times := make([]float64, 32)
	for p := 1; p <= len(times); p++ {
		times[p-1] = truth.Time(p)
	}
	got, err := FitDowney(times)
	if err != nil {
		t.Fatal(err)
	}
	if got.T1 != 50 {
		t.Errorf("T1 = %v", got.T1)
	}
	worst, err := FitError(got, times)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.02 {
		t.Errorf("fit error %.3f (A=%.2f sigma=%.2f, truth A=12 sigma=0.75)", worst, got.A, got.Sigma)
	}
}

func TestFitDowneyNoisyCurve(t *testing.T) {
	truth := Downey{T1: 100, A: 24, Sigma: 1.5}
	r := rand.New(rand.NewSource(5))
	times := make([]float64, 24)
	for p := 1; p <= len(times); p++ {
		times[p-1] = truth.Time(p) * (1 + 0.05*(2*r.Float64()-1))
	}
	got, err := FitDowney(times)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := FitError(got, times)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.15 {
		t.Errorf("noisy fit error %.3f", worst)
	}
}

// downeySample draws the round-trip property's case for seed: a random
// Downey curve sampled on 4..31 processors.
func downeySample(seed int64) (Downey, []float64) {
	r := rand.New(rand.NewSource(seed))
	truth := Downey{
		T1:    1 + r.Float64()*100,
		A:     1 + r.Float64()*40,
		Sigma: r.Float64() * 2,
	}
	n := 4 + r.Intn(28)
	times := make([]float64, n)
	for p := 1; p <= n; p++ {
		times[p-1] = truth.Time(p)
	}
	return truth, times
}

// Regression: this property seed once drove the descent to sigma 11.5 for
// a sigma 1.56 truth, a worst relative error of 0.167.
func TestFitDowneyStaysInSigmaRange(t *testing.T) {
	truth, times := downeySample(266083586096924662)
	got, err := FitDowney(times)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := FitError(got, times)
	if err != nil {
		t.Fatal(err)
	}
	if worst >= 0.15 {
		t.Errorf("fit %+v of truth %+v: worst error %.3f", got, truth, worst)
	}
}

func TestFitDowneyDegenerateInputs(t *testing.T) {
	if _, err := FitDowney(nil); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := FitDowney([]float64{10, -1}); err == nil {
		t.Error("negative time accepted")
	}
	// Single sample: serial task.
	got, err := FitDowney([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if got.A != 1 || got.T1 != 42 {
		t.Errorf("single sample fit = %+v", got)
	}
	// A perfectly serial profile fits A ~ 1.
	got, err = FitDowney([]float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got.Time(4) < 9 || math.Abs(got.Time(1)-10) > 1e-9 {
		t.Errorf("serial profile fit predicts speedup: %+v", got)
	}
}

// Property: round-tripping any Downey curve through sampling + fitting
// reproduces the sampled times within a few percent.
func TestFitDowneyRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		_, times := downeySample(seed)
		got, err := FitDowney(times)
		if err != nil {
			return false
		}
		worst, err := FitError(got, times)
		return err == nil && worst < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
