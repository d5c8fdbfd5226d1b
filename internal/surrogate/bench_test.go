// Surrogate serving benchmarks and the BENCH_surrogate.json gate. This
// file lives in the external test package so it can drive the full
// serving pyramid — server and cluster import surrogate, so the storm
// harness cannot live in package surrogate itself.
package surrogate_test

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"neutronsim/internal/cluster"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/server"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// benchExactSamples is the exact estimator's production default Monte
// Carlo budget (server xsection default and cmd/sweep -samples), so the
// speedup compares the surrogate against what an interactive exact
// query actually costs.
const benchExactSamples = 60000

var (
	benchOnce  sync.Once
	benchModel *surrogate.Model
	benchErr   error
)

// defaultModel trains the stock DefaultGrid model once per process —
// the same model CI retrains and the quickstart ships.
func defaultModel() (*surrogate.Model, error) {
	benchOnce.Do(func() {
		var ds *surrogate.Dataset
		ds, benchErr = surrogate.EvaluateGrid(surrogate.DefaultGrid())
		if benchErr != nil {
			return
		}
		benchModel, benchErr = surrogate.Train(ds, surrogate.TrainConfig{})
	})
	return benchModel, benchErr
}

// BenchmarkSurrogatePredict is the approximate serving path: one hull
// check plus one polynomial evaluation per query.
func BenchmarkSurrogatePredict(b *testing.B) {
	m, err := defaultModel()
	if err != nil {
		b.Fatal(err)
	}
	f := surrogate.FeatureVector(1e14, 3, spectrum.ROTAX(), plan.Bias{})
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		if !m.Hull.Contains(f) {
			b.Fatal("bench point left the hull")
		}
		sink = m.PredictSigma(f)
	}
	_ = sink
}

// BenchmarkSurrogateExactXsection is the tier the surrogate displaces:
// the exact Monte Carlo cross-section estimator at the production
// sample budget, with the process warm (spectra compiled, no cold
// setup in the loop).
func BenchmarkSurrogateExactXsection(b *testing.B) {
	sp := spectrum.ROTAX()
	d := surrogate.DesignDevice(1e14, 3)
	s := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.UpsetCrossSection(sp.Sample, benchExactSamples, s); err != nil {
			b.Fatal(err)
		}
	}
}

// runTierStorm drives a mixed-tolerance xsection storm through a
// surrogate-enabled server: every third key demands an exact answer
// (cacheable), the rest are surrogate-servable. The report's tier
// breakdown is the serving pyramid under load.
func runTierStorm(m *surrogate.Model) (*cluster.Report, error) {
	srv := server.New(server.Config{
		Workers:   4,
		Registry:  telemetry.NewRegistry(),
		Surrogate: m,
	})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	return cluster.RunLoad(context.Background(), cluster.LoadConfig{
		Target:      ts.URL,
		Concurrency: 4,
		Duration:    1500 * time.Millisecond,
		Keys:        40,
		Seed:        3,
		Campaign:    cluster.XsectionCampaign(0.1),
		Client:      ts.Client(),
	})
}

// TestSurrogateTierStorm is the -race-friendly storm check CI runs even
// without benchmarks: all three tiers answer, nothing errors.
func TestSurrogateTierStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm skipped in -short mode")
	}
	m, err := defaultModel()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTierStorm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("storm errors = %d, want 0", rep.Errors)
	}
	if rep.Tiers[cluster.TierSurrogate].Requests == 0 {
		t.Fatalf("no surrogate-tier answers in storm: %+v", rep.Tiers)
	}
	if rep.Tiers[cluster.TierExact].Requests == 0 {
		t.Fatalf("no exact-tier answers in storm: %+v", rep.Tiers)
	}
}

// TestMain writes BENCH_surrogate.json at the repo root when benchmarks
// run, following the BENCH_plan.json idiom. It exits non-zero if the
// held-out error escaped the certified bound, if the surrogate's
// latency win over warm exact MC is below 1000×, or if the tier storm
// saw errors — the surrogate CI gates.
func TestMain(m *testing.M) {
	code := m.Run()
	bench := flag.Lookup("test.bench")
	if code == 0 && bench != nil && bench.Value.String() != "" {
		if err := writeSurrogateSnapshot("../../BENCH_surrogate.json"); err != nil {
			fmt.Fprintln(os.Stderr, "surrogate bench snapshot:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeSurrogateSnapshot(path string) error {
	model, err := defaultModel()
	if err != nil {
		return err
	}
	predict := testing.Benchmark(BenchmarkSurrogatePredict)
	exact := testing.Benchmark(BenchmarkSurrogateExactXsection)
	if predict.N == 0 || exact.N == 0 {
		return fmt.Errorf("benchmarks did not run")
	}
	speedup := float64(exact.NsPerOp()) / float64(predict.NsPerOp())
	storm, err := runTierStorm(model)
	if err != nil {
		return err
	}
	snap := struct {
		Note              string                         `json:"note"`
		GOMAXPROCS        int                            `json:"gomaxprocs"`
		ModelHash         string                         `json:"model_hash"`
		TrainRows         int                            `json:"train_rows"`
		HeldOutRows       int                            `json:"held_out_rows"`
		HeldOutMaxRelErr  float64                        `json:"held_out_max_rel_err"`
		HeldOutMeanRelErr float64                        `json:"held_out_mean_rel_err"`
		CertifiedRelErr   float64                        `json:"certified_rel_err"`
		ExactSamples      int                            `json:"exact_samples"`
		PredictNsPerOp    float64                        `json:"surrogate_ns_per_op"`
		PredictAllocs     int64                          `json:"surrogate_allocs_per_op"`
		ExactNsPerOp      float64                        `json:"exact_ns_per_op"`
		Speedup           float64                        `json:"surrogate_speedup_vs_exact"`
		StormRequests     int64                          `json:"storm_requests"`
		StormErrors       int64                          `json:"storm_errors"`
		StormTiers        map[string]cluster.TierLatency `json:"storm_tiers"`
	}{
		Note: "surrogate serving tier (DESIGN.md §17); held-out error must stay " +
			"within the certified bound and the surrogate must be >= 1000x faster " +
			"than warm exact MC",
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		ModelHash:         model.Hash,
		TrainRows:         model.TrainRows,
		HeldOutRows:       model.HeldOutRows,
		HeldOutMaxRelErr:  model.HeldOutMaxRelErr,
		HeldOutMeanRelErr: model.HeldOutMeanRelErr,
		CertifiedRelErr:   model.CertifiedRelErr,
		ExactSamples:      benchExactSamples,
		PredictNsPerOp:    float64(predict.NsPerOp()),
		PredictAllocs:     predict.AllocsPerOp(),
		ExactNsPerOp:      float64(exact.NsPerOp()),
		Speedup:           speedup,
		StormRequests:     storm.Requests,
		StormErrors:       storm.Errors,
		StormTiers:        storm.Tiers,
	}
	if snap.HeldOutMaxRelErr > snap.CertifiedRelErr {
		return fmt.Errorf("held-out max rel err %.4f escaped the certified bound %.4f",
			snap.HeldOutMaxRelErr, snap.CertifiedRelErr)
	}
	if speedup < 1000 {
		return fmt.Errorf("surrogate speedup %.0fx vs warm exact MC, want >= 1000x", speedup)
	}
	if storm.Errors != 0 {
		return fmt.Errorf("tier storm saw %d errors, want 0", storm.Errors)
	}
	return telemetry.WriteJSONAtomic(path, snap)
}
