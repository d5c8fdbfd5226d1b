package fit

import (
	"math"
	"strings"
	"testing"

	"neutronsim/internal/memsim"
	"neutronsim/internal/units"
)

func TestNYCReference(t *testing.T) {
	nyc := NYC()
	if nyc.FastFluxPerHour != 13 {
		t.Errorf("NYC fast flux = %v", nyc.FastFluxPerHour)
	}
	if r := nyc.ThermalFluxPerHour / nyc.FastFluxPerHour; math.Abs(r-0.31) > 1e-9 {
		t.Errorf("NYC thermal:fast = %v, want 0.31", r)
	}
}

func TestLeadvilleScaling(t *testing.T) {
	lv := Leadville()
	fastAccel := lv.FastFluxPerHour / NYC().FastFluxPerHour
	if math.Abs(fastAccel-12.9)/12.9 > 0.03 {
		t.Errorf("Leadville fast acceleration = %v, want ~12.9", fastAccel)
	}
	if r := lv.ThermalFluxPerHour / lv.FastFluxPerHour; math.Abs(r-0.54) > 0.04 {
		t.Errorf("Leadville bare thermal:fast = %v, want ~0.54", r)
	}
	if math.Abs(lv.AltitudeFt-10151) > 110 {
		t.Errorf("Leadville altitude = %v ft, want ~10151", lv.AltitudeFt)
	}
}

func TestAtAltitudeNegativeClamps(t *testing.T) {
	l := AtAltitude("below sea", -100)
	if l.FastFluxPerHour != NYC().FastFluxPerHour {
		t.Error("negative altitude should clamp to sea level")
	}
}

func TestEnvironmentAdjustments(t *testing.T) {
	nyc := NYC()
	base := Environment{Location: nyc}.ThermalFluxPerHour()
	concrete := Environment{Location: nyc, ConcreteFloor: true}.ThermalFluxPerHour()
	water := Environment{Location: nyc, WaterCooling: true}.ThermalFluxPerHour()
	both := DataCenter(nyc).ThermalFluxPerHour()
	if math.Abs(concrete/base-1.20) > 1e-9 {
		t.Errorf("concrete factor = %v, want 1.20", concrete/base)
	}
	if math.Abs(water/base-1.24) > 1e-9 {
		t.Errorf("water factor = %v, want 1.24", water/base)
	}
	if math.Abs(both/base-1.44) > 1e-9 {
		t.Errorf("data-center factor = %v, want 1.44 (the paper's +44%%)", both/base)
	}
	rain := Environment{Location: nyc, Raining: true}.ThermalFluxPerHour()
	if math.Abs(rain/base-2) > 1e-9 {
		t.Errorf("rain factor = %v, want 2", rain/base)
	}
}

func TestExtraThermalFactor(t *testing.T) {
	nyc := NYC()
	env := Environment{Location: nyc, ExtraThermalFactor: 3}
	if got := env.ThermalFluxPerHour() / nyc.ThermalFluxPerHour; math.Abs(got-3) > 1e-9 {
		t.Errorf("extra factor = %v", got)
	}
	bad := Environment{Location: nyc, ExtraThermalFactor: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative extra factor accepted")
	}
}

func TestFastFluxUntouched(t *testing.T) {
	env := Environment{Location: NYC(), ConcreteFloor: true, WaterCooling: true, Raining: true}
	if env.FastFluxPerHour() != 13 {
		t.Error("materials should not change the fast flux")
	}
}

func TestEnvironmentString(t *testing.T) {
	env := Environment{Location: NYC(), ConcreteFloor: true, WaterCooling: true, Raining: true}
	s := env.String()
	for _, want := range []string{"New York City", "concrete", "water", "rain"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
}

func TestSigmasValidate(t *testing.T) {
	if err := (Sigmas{}).Validate(); err == nil {
		t.Error("zero sigmas accepted")
	}
	if err := (Sigmas{SDCFast: -1}).Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	if err := (Sigmas{SDCFast: 1e-9}).Validate(); err != nil {
		t.Errorf("valid sigmas rejected: %v", err)
	}
}

// TestXeonPhiShareAtNYC encodes the paper's quoted number: with the
// measured cross-section ratio (SDC 10.14) and the +44%-adjusted NYC
// fluxes, the thermal share of the Xeon Phi SDC FIT is ≈4.2%.
func TestXeonPhiShareAtNYC(t *testing.T) {
	s := Sigmas{
		SDCFast:    10.14e-9,
		SDCThermal: 1e-9,
		DUEFast:    6.37e-9,
		DUEThermal: 1e-9,
	}
	rep, err := Compute(s, DataCenter(NYC()))
	if err != nil {
		t.Fatal(err)
	}
	if share := rep.SDC.ThermalShare(); math.Abs(share-0.042) > 0.005 {
		t.Errorf("Xeon Phi NYC SDC thermal share = %v, paper: 4.2%%", share)
	}
}

// TestLeadvilleShares checks the paper's Leadville quotes: Xeon Phi DUE
// ≈10.6%, K20 SDC ≈29%, APU CPU+GPU DUE ≈39%.
func TestLeadvilleShares(t *testing.T) {
	env := DataCenter(Leadville())
	tests := []struct {
		name  string
		ratio float64
		want  float64
		tol   float64
	}{
		{"XeonPhi DUE", 6.37, 0.106, 0.02},
		{"K20 SDC", 2.0, 0.29, 0.04},
		{"APU CPU+GPU DUE", 1.18, 0.39, 0.05},
	}
	for _, tt := range tests {
		s := Sigmas{SDCFast: units.CrossSection(tt.ratio) * 1e-9, SDCThermal: 1e-9,
			DUEFast: units.CrossSection(tt.ratio) * 1e-9, DUEThermal: 1e-9}
		rep, err := Compute(s, env)
		if err != nil {
			t.Fatal(err)
		}
		if share := rep.SDC.ThermalShare(); math.Abs(share-tt.want) > tt.tol {
			t.Errorf("%s thermal share = %v, paper: %v", tt.name, share, tt.want)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	if _, err := Compute(Sigmas{}, DataCenter(NYC())); err == nil {
		t.Error("invalid sigmas accepted")
	}
	if _, err := Compute(Sigmas{SDCFast: 1e-9}, Environment{}); err == nil {
		t.Error("fluxless environment accepted")
	}
}

func TestFITNumbers(t *testing.T) {
	// sigma 1e-9 cm² at 13 n/cm²/h ⇒ 13 FIT.
	rep, err := Compute(Sigmas{SDCFast: 1e-9}, Environment{Location: NYC()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rep.SDC.Fast)-13) > 1e-6 {
		t.Errorf("SDC fast FIT = %v, want 13", rep.SDC.Fast)
	}
	if rep.Total() != rep.SDC.Total()+rep.DUE.Total() {
		t.Error("total mismatch")
	}
}

func TestUnderestimationFactor(t *testing.T) {
	rep, err := Compute(Sigmas{SDCFast: 2e-9, SDCThermal: 2e-9}, DataCenter(Leadville()))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.UnderestimationFactor()
	if f <= 1.3 {
		t.Errorf("underestimation factor = %v; thermal contribution should be large at altitude", f)
	}
	var empty Report
	if empty.UnderestimationFactor() != 0 {
		t.Error("empty report factor should be 0")
	}
}

func TestRainRaisesThermalShare(t *testing.T) {
	s := Sigmas{SDCFast: 2e-9, SDCThermal: 1e-9}
	dry, _ := Compute(s, Environment{Location: NYC()})
	wet, _ := Compute(s, Environment{Location: NYC(), Raining: true})
	if wet.SDC.ThermalShare() <= dry.SDC.ThermalShare() {
		t.Error("rain should raise the thermal share")
	}
}

func TestProjectTop10(t *testing.T) {
	sigmas := map[memsim.Generation]units.CrossSection{
		memsim.DDR3: 1e-10,
		memsim.DDR4: 1e-11,
	}
	rows, err := ProjectTop10(Top10(), sigmas, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	// Sorted descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].ThermalFIT > rows[i-1].ThermalFIT {
			t.Error("rows not sorted by FIT")
		}
	}
	byName := map[string]SupercomputerFIT{}
	for _, r := range rows {
		byName[r.Machine.Name] = r
		if r.RainyDayFIT <= r.ThermalFIT {
			t.Errorf("%s rainy FIT %v not above dry %v", r.Machine.Name, r.RainyDayFIT, r.ThermalFIT)
		}
		if r.WithECC >= r.ThermalFIT {
			t.Errorf("%s ECC FIT %v not below raw %v", r.Machine.Name, r.WithECC, r.ThermalFIT)
		}
	}
	// Trinity sits at 2231 m: its FIT per TB must dwarf a sea-level
	// DDR4 machine's.
	trinity := byName["Trinity"]
	abci := byName["ABCI"]
	trinityPerTB := float64(trinity.ThermalFIT) / trinity.Machine.MemoryTB
	abciPerTB := float64(abci.ThermalFIT) / abci.Machine.MemoryTB
	if trinityPerTB < 5*abciPerTB {
		t.Errorf("Trinity per-TB FIT %v should be >> ABCI's %v (altitude)", trinityPerTB, abciPerTB)
	}
	// DDR3 machines pay the 10× cross-section penalty.
	tianhe := byName["Tianhe-2A"]
	summit := byName["Summit"]
	tianhePerTB := float64(tianhe.ThermalFIT) / tianhe.Machine.MemoryTB
	summitPerTB := float64(summit.ThermalFIT) / summit.Machine.MemoryTB
	if tianhePerTB < 3*summitPerTB {
		t.Errorf("DDR3 Tianhe per-TB FIT %v should be >> DDR4 Summit's %v", tianhePerTB, summitPerTB)
	}
}

func TestProjectTop10Validation(t *testing.T) {
	sigmas := map[memsim.Generation]units.CrossSection{memsim.DDR4: 1e-11}
	if _, err := ProjectTop10(nil, sigmas, 0.1); err == nil {
		t.Error("empty machine list accepted")
	}
	if _, err := ProjectTop10(Top10(), sigmas, 0.1); err == nil {
		t.Error("missing DDR3 sigma accepted")
	}
	full := map[memsim.Generation]units.CrossSection{memsim.DDR3: 1e-10, memsim.DDR4: 1e-11}
	if _, err := ProjectTop10(Top10(), full, 2); err == nil {
		t.Error("ECC residual > 1 accepted")
	}
}

func TestTop10Composition(t *testing.T) {
	machines := Top10()
	if len(machines) != 10 {
		t.Fatalf("%d machines", len(machines))
	}
	ddr3 := 0
	for _, m := range machines {
		if m.MemoryTB <= 0 {
			t.Errorf("%s has no memory", m.Name)
		}
		if m.Generation == memsim.DDR3 {
			ddr3++
		}
	}
	if ddr3 != 2 {
		t.Errorf("expected 2 DDR3 machines (TaihuLight, Tianhe-2A), got %d", ddr3)
	}
}

func TestPfotzerMaximum(t *testing.T) {
	// Flux grows up to ~18.3 km, then declines (§II-A: "reaching a
	// maximum at about 60,000 ft").
	ground := AtAltitude("ground", 0).FastFluxPerHour
	cruise := AtAltitude("cruise", 12000).FastFluxPerHour
	peak := AtAltitude("peak", 18300).FastFluxPerHour
	above := AtAltitude("above", 30000).FastFluxPerHour
	if !(ground < cruise && cruise < peak) {
		t.Errorf("flux should grow to the Pfotzer maximum: %v %v %v", ground, cruise, peak)
	}
	if above >= peak {
		t.Errorf("flux above the Pfotzer maximum should decline: %v vs %v", above, peak)
	}
	// Aviation altitudes see hundreds of times the ground flux, not tens
	// of thousands (the depth model, unlike a pure altitude exponential).
	accel := cruise / ground
	if accel < 100 || accel > 2000 {
		t.Errorf("12 km acceleration = %v, want O(several hundred)", accel)
	}
}

func TestAltitudeFactorContinuousAtPeak(t *testing.T) {
	below := altitudeFactor(pfotzerAltitudeM-1, fastAttenuationGCm2)
	at := altitudeFactor(pfotzerAltitudeM, fastAttenuationGCm2)
	above := altitudeFactor(pfotzerAltitudeM+1, fastAttenuationGCm2)
	if math.Abs(below-at)/at > 0.001 || math.Abs(above-at)/at > 0.001 {
		t.Errorf("discontinuity at the Pfotzer maximum: %v %v %v", below, at, above)
	}
}
