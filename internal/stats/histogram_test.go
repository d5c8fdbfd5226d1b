package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogHistogramBasics(t *testing.T) {
	h, err := NewLogHistogram(1, 1e10, 10) // one bin per decade
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)
	h.Add(9.99e9)
	h.Add(2e5)
	if h.Count(0) != 1 || h.Count(9) != 1 || h.Count(5) != 1 {
		t.Errorf("counts wrong: %v %v %v", h.Count(0), h.Count(9), h.Count(5))
	}
	if h.Total() != 3 {
		t.Errorf("total = %v", h.Total())
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h, _ := NewLogHistogram(1, 16, 4)
	h.Add(0.5)
	h.Add(32)
	h.Add(16) // hi edge is exclusive → overflow
	for i := 0; i < h.Bins(); i++ {
		if h.Count(i) != 0 {
			t.Errorf("bin %d = %v, want every observation out of range", i, h.Count(i))
		}
	}
	if h.Total() != 3 {
		t.Errorf("total = %v, want under- and overflow counted", h.Total())
	}
}

func TestHistogramInvalidArgs(t *testing.T) {
	if _, err := NewLogHistogram(10, 1, 5); err == nil {
		t.Error("expected error for reversed range")
	}
	if _, err := NewLogHistogram(1, 10, 0); err == nil {
		t.Error("expected error for zero bins")
	}
	if _, err := NewLogHistogram(0, 1, 5); err == nil {
		t.Error("expected error for zero lower bound in log histogram")
	}
}

func TestLogHistogramBinning(t *testing.T) {
	h, err := NewLogHistogram(1e-3, 1e9, 12) // one bin per decade
	if err != nil {
		t.Fatal(err)
	}
	// Each decade midpoint should land in its own bin.
	for i := 0; i < 12; i++ {
		x := math.Pow(10, -3+float64(i)) * 3.16 // ~ geometric center of the decade
		h.Add(x)
	}
	for i := 0; i < 12; i++ {
		if h.Count(i) != 1 {
			t.Errorf("bin %d count = %v, want 1", i, h.Count(i))
		}
	}
}

func TestHistogramMassConservation(t *testing.T) {
	f := func(raw []float64) bool {
		h, _ := NewLogHistogram(1e-3, 1e10, 40)
		for _, v := range raw {
			h.Add(math.Abs(v))
		}
		return h.Total() == float64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinCenters(t *testing.T) {
	lg, _ := NewLogHistogram(1, 100, 2)
	if got := lg.BinCenter(0); math.Abs(got-math.Sqrt(10)) > 1e-9 {
		t.Errorf("log center = %v, want sqrt(10)", got)
	}
}

func TestPerLethargy(t *testing.T) {
	h, _ := NewLogHistogram(1, math.E*math.E, 2) // bins of width 1 in lethargy
	h.AddWeighted(1.5, 10)
	pl := h.PerLethargy()
	if math.Abs(pl[0]-10) > 1e-9 {
		t.Errorf("per-lethargy = %v, want 10 (bin width = 1 lethargy unit)", pl[0])
	}
}

func TestIntegralBetween(t *testing.T) {
	h, _ := NewLogHistogram(1e-3, 1e9, 36)
	h.AddWeighted(0.025, 5) // thermal
	h.AddWeighted(10e6, 7)  // fast
	if got := h.IntegralBetween(1e-3, 0.5); got != 5 {
		t.Errorf("thermal integral = %v, want 5", got)
	}
	if got := h.IntegralBetween(1e6, 1e9); got != 7 {
		t.Errorf("fast integral = %v, want 7", got)
	}
}
