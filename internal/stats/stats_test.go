package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("mean = %v N = %d", s.Mean, s.N)
	}
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Variance, 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3.5 || s.Std != 0 || s.Variance != 0 {
		t.Errorf("single-sample summary wrong: %+v", s)
	}
}

// Known Garwood 95% Poisson CI values (e.g. from standard tables).
func TestPoisson95KnownValues(t *testing.T) {
	tests := []struct {
		count        int64
		lower, upper float64
	}{
		{0, 0, 3.689},
		{1, 0.0253, 5.572},
		{5, 1.623, 11.668},
		{10, 4.795, 18.390},
		{100, 81.36, 121.63},
	}
	for _, tt := range tests {
		ci := Poisson95(tt.count)
		if math.Abs(ci.Lower-tt.lower) > 0.01*math.Max(tt.lower, 0.5) {
			t.Errorf("count %d lower = %v, want %v", tt.count, ci.Lower, tt.lower)
		}
		if math.Abs(ci.Upper-tt.upper) > 0.01*tt.upper {
			t.Errorf("count %d upper = %v, want %v", tt.count, ci.Upper, tt.upper)
		}
	}
}

func TestPoissonCICoversCount(t *testing.T) {
	for _, k := range []int64{1, 2, 7, 50, 1000} {
		ci := Poisson95(k)
		if float64(k) < ci.Lower || float64(k) > ci.Upper {
			t.Errorf("CI for %d does not contain the count: [%v, %v]", k, ci.Lower, ci.Upper)
		}
	}
}

func TestPoissonCIRelativeWidthShrinks(t *testing.T) {
	relWidth := func(k int64) float64 {
		ci := Poisson95(k)
		return (ci.Upper - ci.Lower) / float64(k)
	}
	if w10, w1000 := relWidth(10), relWidth(1000); w1000 >= w10 {
		t.Errorf("relative width should shrink with count: w(10)=%v w(1000)=%v", w10, w1000)
	}
}

func TestPoissonConfidenceBadConfidenceDefaults(t *testing.T) {
	ci := PoissonConfidence(5, 1.5)
	if ci.Confidence != 0.95 {
		t.Errorf("confidence = %v, want default 0.95", ci.Confidence)
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.8413447, 1.0},
	}
	for _, tt := range tests {
		if got := normalQuantile(tt.p); math.Abs(got-tt.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("quantile at 0/1 should be infinite")
	}
}

func TestRegularizedGammaP(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := 1 - math.Exp(-x)
		if got := regularizedGammaP(1, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a, 0) = 0; P(a, large) → 1.
	if got := regularizedGammaP(3, 0); got != 0 {
		t.Errorf("P(3,0) = %v", got)
	}
	if got := regularizedGammaP(3, 100); math.Abs(got-1) > 1e-10 {
		t.Errorf("P(3,100) = %v", got)
	}
}

func TestEstimateRate(t *testing.T) {
	re, err := EstimateRate(50, 1e10)
	if err != nil {
		t.Fatal(err)
	}
	if re.Rate != 5e-9 {
		t.Errorf("rate = %v", re.Rate)
	}
	if re.Lower >= re.Rate || re.Upper <= re.Rate {
		t.Errorf("interval [%v,%v] does not bracket rate %v", re.Lower, re.Upper, re.Rate)
	}
}

func TestEstimateRateZeroExposure(t *testing.T) {
	if _, err := EstimateRate(5, 0); err == nil {
		t.Error("expected error for zero exposure")
	}
}

func TestRatioCI(t *testing.T) {
	num := RateEstimate{Events: 400, Rate: 4e-8}
	den := RateEstimate{Events: 100, Rate: 2e-8}
	ratio, lo, hi := RatioCI(num, den)
	if ratio != 2 {
		t.Errorf("ratio = %v", ratio)
	}
	if lo >= 2 || hi <= 2 {
		t.Errorf("CI [%v,%v] should bracket 2", lo, hi)
	}
}

func TestRatioCIZeroDenominator(t *testing.T) {
	ratio, _, _ := RatioCI(RateEstimate{Events: 5, Rate: 1}, RateEstimate{})
	if !math.IsNaN(ratio) {
		t.Errorf("ratio = %v, want NaN", ratio)
	}
}
