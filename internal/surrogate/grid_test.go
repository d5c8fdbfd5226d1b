package surrogate

import (
	"testing"

	"neutronsim/internal/plan"
)

// goldenGrid is the small grid whose dataset fingerprints are pinned
// below.
func goldenGrid(bias *plan.Bias) GridConfig {
	return GridConfig{
		BoronMin: 1e12, BoronMax: 1e15, BoronSteps: 3,
		QcritMin: 1, QcritMax: 8, QcritSteps: 2,
		Samples: 5000,
		Seed:    11,
		Bias:    bias,
	}
}

// TestEvaluateGridGolden pins the dataset fingerprints of a small exact
// grid and a small thermally biased grid. Any change to the grid order,
// the stream split order or either estimator shows up here.
func TestEvaluateGridGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		bias *plan.Bias
		want string
	}{
		{"exact", nil, "7b43270057f2d222f2bdf4a849bd67512141aea31350aef707105dd90a68809d"},
		{"biased", &plan.Bias{Thermal: 10}, "9f433659c56516ddd1459dacae0356b2a1f25bbc39d70a13811c08bfbc69a316"},
	} {
		ds, err := EvaluateGrid(goldenGrid(c.bias))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ds.Fingerprint(); got != c.want {
			t.Errorf("%s grid fingerprint = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestEvaluateGridWorkerInvariance checks that the worker count only
// changes scheduling: serial, 4-way and GOMAXPROCS-wide (Workers 0)
// evaluation give identical datasets, exact and biased.
func TestEvaluateGridWorkerInvariance(t *testing.T) {
	for _, bias := range []*plan.Bias{nil, {Thermal: 10}} {
		cfg := goldenGrid(bias)
		cfg.BoronSteps, cfg.QcritSteps = 4, 3
		cfg.Workers = 1
		serial, err := EvaluateGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 0} {
			cfg.Workers = workers
			parallel, err := EvaluateGrid(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Fingerprint() != parallel.Fingerprint() {
				t.Errorf("bias %v: Workers 1 and %d give different datasets", bias, workers)
			}
		}
	}
}

// TestEvaluateGridLattice checks the grid enumeration: boron-major,
// log-spaced, a single step sitting at the minimum, and two rows per
// point (ROTAX, then ChipIR).
func TestEvaluateGridLattice(t *testing.T) {
	ds, err := EvaluateGrid(GridConfig{
		BoronMin: 1, BoronMax: 100, BoronSteps: 3,
		QcritMin: 2, QcritMax: 2, QcritSteps: 1,
		Samples: 100,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Rows) != 2*3 {
		t.Fatalf("%d rows, want 6", len(ds.Rows))
	}
	for i, want := range []float64{1, 10, 100} {
		for j, sp := range []string{"ROTAX", "ChipIR"} {
			r := ds.Rows[2*i+j]
			if got := r.BoronPerCm2; got < want*0.999 || got > want*1.001 {
				t.Errorf("point %d boron = %v, want ~%v", i, got, want)
			}
			if r.QcritFC != 2 {
				t.Errorf("point %d qcrit = %v, want 2", i, r.QcritFC)
			}
			if r.Spectrum != sp {
				t.Errorf("row %d spectrum = %q, want %q", 2*i+j, r.Spectrum, sp)
			}
		}
	}
}

// TestEvaluateGridMonotoneInBoron checks the physics the grid maps:
// thermal σ rises with boron while fast σ stays flat.
func TestEvaluateGridMonotoneInBoron(t *testing.T) {
	ds, err := EvaluateGrid(GridConfig{
		BoronMin: 1e13, BoronMax: 1e15, BoronSteps: 3,
		QcritMin: 6, QcritMax: 6, QcritSteps: 1,
		Samples: 30000,
		Seed:    9,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := func(i int) float64 { return ds.Rows[2*i].SigmaCm2 }
	fast := func(i int) float64 { return ds.Rows[2*i+1].SigmaCm2 }
	if !(th(0) < th(1) && th(1) < th(2)) {
		t.Errorf("thermal sigma not monotone: %v %v %v", th(0), th(1), th(2))
	}
	if spread := fast(2) / fast(0); spread < 0.5 || spread > 2 {
		t.Errorf("fast sigma should not depend on boron: spread %v", spread)
	}
}

// TestEvaluateGridBiasedAgreesWithExact pins the weighted estimator's
// contract: with thermal oversampling the design-point sigmas must agree
// with the analog estimator within Monte Carlo noise, on both beamlines.
func TestEvaluateGridBiasedAgreesWithExact(t *testing.T) {
	cfg := GridConfig{
		BoronMin: 1e14, BoronMax: 1e15, BoronSteps: 2,
		QcritMin: 6, QcritMax: 6, QcritSteps: 1,
		Samples: 30000,
		Seed:    9,
		Workers: 2,
	}
	exact, err := EvaluateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Bias = &plan.Bias{Thermal: 10}
	biased, err := EvaluateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Rows {
		ex, bi := exact.Rows[i].SigmaCm2, biased.Rows[i].SigmaCm2
		name := exact.Rows[i].Spectrum
		if ex <= 0 || bi <= 0 {
			t.Errorf("point %d %s: nonpositive sigma (exact %v, biased %v)", i/2, name, ex, bi)
			continue
		}
		if r := bi / ex; r < 0.7 || r > 1.4 {
			t.Errorf("point %d %s: biased sigma %v vs exact %v (ratio %v)", i/2, name, bi, ex, r)
		}
	}
}
