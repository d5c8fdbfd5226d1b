package physics

import (
	"math"
	"testing"
	"testing/quick"

	"neutronsim/internal/units"
)

func TestNewXSTableValidation(t *testing.T) {
	cases := []struct {
		name     string
		energies []float64
		barns    []float64
	}{
		{"too short", []float64{1}, []float64{1}},
		{"length mismatch", []float64{1, 2}, []float64{1}},
		{"non-positive energy", []float64{0, 1}, []float64{1, 1}},
		{"non-positive barns", []float64{1, 2}, []float64{1, 0}},
		{"not increasing", []float64{2, 1}, []float64{1, 1}},
		{"duplicate energy", []float64{1, 1}, []float64{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewXSTable(tc.energies, tc.barns); err == nil {
				t.Error("bad table accepted")
			}
		})
	}
}

func TestXSTableExactPoints(t *testing.T) {
	tbl, err := NewXSTable([]float64{1, 10, 100}, []float64{50, 5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []float64{1, 10, 100} {
		want := []float64{50, 5, 0.5}[i]
		if got := tbl.At(units.Energy(e)).Barns(); math.Abs(got-want)/want > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", e, got, want)
		}
	}
}

func TestXSTableLogLogInterpolation(t *testing.T) {
	// A perfect 1/v table must interpolate exactly on the 1/v law.
	tbl, err := NewXSTable(
		[]float64{0.01, 1, 100},
		[]float64{100, 10, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := tbl.At(0.1).Barns()
	want := 10 * math.Sqrt(1/0.1)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("interpolated %v, want %v", got, want)
	}
}

func TestXSTableExtrapolation(t *testing.T) {
	tbl, _ := NewXSTable([]float64{0.01, 1}, []float64{100, 10})
	// Below: 1/v growth.
	cold := tbl.At(0.0025).Barns()
	if math.Abs(cold-200)/200 > 1e-9 {
		t.Errorf("cold extrapolation = %v, want 200", cold)
	}
	// Above: hold last value.
	if got := tbl.At(1e6).Barns(); got != 10 {
		t.Errorf("hot extrapolation = %v, want 10", got)
	}
	// Zero energy stays finite.
	if v := tbl.At(0); math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
		t.Error("zero-energy lookup not finite")
	}
}

func TestXSTablePositiveProperty(t *testing.T) {
	f := func(raw float64) bool {
		e := units.Energy(math.Abs(math.Mod(raw, 1e7)) + 1e-4)
		return CadmiumAbsorption.At(e) > 0 && Boron10Absorption.At(e) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCadmiumCutoffShape(t *testing.T) {
	// The resonance peak near 0.178 eV dominates.
	peak := CadmiumAbsorption.At(0.178).Barns()
	thermal := CadmiumAbsorption.At(0.0253).Barns()
	epithermal := CadmiumAbsorption.At(1).Barns()
	if peak < 2*thermal {
		t.Errorf("resonance %v should dwarf thermal %v", peak, thermal)
	}
	// The cutoff: absorption collapses by orders of magnitude above 0.5 eV.
	if thermal/epithermal < 100 {
		t.Errorf("cutoff too soft: thermal %v vs 1 eV %v", thermal, epithermal)
	}
	// Reference thermal value preserved.
	if math.Abs(thermal-2520)/2520 > 1e-9 {
		t.Errorf("2200 m/s value = %v, want 2520", thermal)
	}
}

func TestBoron10TableMatchesOneOverV(t *testing.T) {
	// In the thermal range, the table and the analytic 1/v law must agree
	// to within a few percent.
	for _, e := range []units.Energy{0.005, 0.0253, 0.1, 0.4} {
		tab := Boron10Absorption.At(e).Barns()
		analytic := Boron10Capture(e).Barns()
		if math.Abs(tab-analytic)/analytic > 0.05 {
			t.Errorf("at %v: table %v vs 1/v %v", e, tab, analytic)
		}
	}
}
