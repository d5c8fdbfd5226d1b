package plan

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// benchPlanSamples is the production default calibration budget
// (beam.Config.CalSamples), so cold-vs-warm measures exactly the setup
// cost a real campaign pays.
const benchPlanSamples = 20000

// BenchmarkPlanCompileCold is the uncached campaign setup: derive the
// calibration substream and compile the full plan, every iteration.
func BenchmarkPlanCompileCold(b *testing.B) {
	d := device.K20()
	sp := spectrum.ChipIR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compile(d, sp, benchPlanSamples, CalibrationStream(1))
	}
}

// warmBench carries the cache observations of the latest warm-hit
// benchmark run out to the snapshot writer.
var warmBench struct {
	stats         Stats
	timedCompiles int64
}

// BenchmarkPlanCacheWarmHit is the memoized setup: every iteration is a
// cache hit (key hash + lookup). The benchmark fails outright if the timed
// loop compiled anything — the warm path doing zero compiles is the
// property the CI gate enforces.
func BenchmarkPlanCacheWarmHit(b *testing.B) {
	c := NewCache(4, telemetry.NewRegistry())
	d := device.K20()
	sp := spectrum.ChipIR()
	c.For(context.Background(), d, sp, benchPlanSamples, 1, nil) // prime: the one allowed compile
	before := c.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.For(context.Background(), d, sp, benchPlanSamples, 1, nil)
	}
	b.StopTimer()
	warmBench.stats = c.Stats()
	warmBench.timedCompiles = warmBench.stats.Misses - before
	if warmBench.timedCompiles != 0 {
		b.Fatalf("warm path compiled %d times during the timed loop, want 0", warmBench.timedCompiles)
	}
}

// TestMain writes BENCH_plan.json at the repo root when benchmarks run,
// following the BENCH_sampling.json idiom. It exits non-zero if the warm
// path compiled during its timed loop or if the memoized setup is less
// than 10× faster than a cold compile — the plan-cache CI gates.
func TestMain(m *testing.M) {
	code := m.Run()
	bench := flag.Lookup("test.bench")
	if code == 0 && bench != nil && bench.Value.String() != "" {
		if err := writePlanSnapshot("../../BENCH_plan.json"); err != nil {
			fmt.Fprintln(os.Stderr, "plan bench snapshot:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func writePlanSnapshot(path string) error {
	cold := testing.Benchmark(BenchmarkPlanCompileCold)
	warm := testing.Benchmark(BenchmarkPlanCacheWarmHit)
	if warm.N == 0 {
		return fmt.Errorf("warm-hit benchmark did not run")
	}
	speedup := float64(cold.NsPerOp()) / float64(warm.NsPerOp())
	snap := struct {
		Note              string  `json:"note"`
		GOMAXPROCS        int     `json:"gomaxprocs"`
		CalSamples        int     `json:"cal_samples"`
		ColdNsPerOp       float64 `json:"cold_setup_ns_per_op"`
		WarmNsPerOp       float64 `json:"warm_setup_ns_per_op"`
		Speedup           float64 `json:"warm_speedup_vs_cold"`
		WarmAllocsPerOp   int64   `json:"warm_allocs_per_op"`
		WarmBytesPerOp    int64   `json:"warm_bytes_per_op"`
		WarmTimedCompiles int64   `json:"warm_compiles_during_timed_loop"`
		WarmHitRatio      float64 `json:"warm_hit_ratio"`
	}{
		Note: "campaign-plan cache (DESIGN.md §12); warm path must not compile " +
			"and must be >= 10x faster than cold setup",
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		CalSamples:        benchPlanSamples,
		ColdNsPerOp:       float64(cold.NsPerOp()),
		WarmNsPerOp:       float64(warm.NsPerOp()),
		Speedup:           speedup,
		WarmAllocsPerOp:   warm.AllocsPerOp(),
		WarmBytesPerOp:    warm.AllocedBytesPerOp(),
		WarmTimedCompiles: warmBench.timedCompiles,
		WarmHitRatio:      warmBench.stats.HitRatio(),
	}
	if snap.WarmTimedCompiles != 0 {
		return fmt.Errorf("warm path compiled %d times during the timed loop, want 0", snap.WarmTimedCompiles)
	}
	if speedup < 10 {
		return fmt.Errorf("warm setup speedup %.1fx, want >= 10x", speedup)
	}
	return telemetry.WriteJSONAtomic(path, snap)
}
