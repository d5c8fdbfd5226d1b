package beam

import (
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/telemetry"
)

// TestRunLoopZeroAllocs is the tier-1 gate behind the "allocs/op = 0 in
// the run loop" acceptance criterion: a steady-state beam run — Poisson
// draw, alias energy draws, device physics, fault bookkeeping — must not
// touch the heap. The quiet device keeps the critical charge above any
// possible deposit so the first two blocks isolate the sampling path; the
// upset-heavy blocks then hold fault-injection replay to the same gate.
func TestRunLoopZeroAllocs(t *testing.T) {
	cfg := Config{
		Device:       benchQuietDevice(),
		WorkloadName: "MxM",
		Beam:         spectrum.ChipIR(),
		Seed:         7,
	}.withDefaults()
	pl := plan.Compile(cfg.Device, cfg.Beam, 20000, rng.New(1))
	r, err := newShardRunner(cfg, engine.Shard{Index: 0, Count: 1, Stream: rng.New(3)}, pl, 2)
	if err != nil {
		t.Fatal(err)
	}
	block := func() { r.runBlock(runBatchSize) }
	// Warm up scratch capacities before measuring steady state.
	for i := 0; i < 4; i++ {
		block()
	}
	if avg := testing.AllocsPerRun(20, block); avg != 0 {
		t.Errorf("run loop allocates %.2f times per %d-run block, want 0", avg, runBatchSize)
	}
	if r.tc.interactions == 0 {
		t.Fatal("run loop drew no interactions; the measurement exercised nothing")
	}

	// The weighted (importance-sampled) run loop shares the zero-alloc
	// contract: the weights live in the plan's band table and the shard
	// scratch, never on the heap.
	bpl, err := plan.CompileBiased(cfg.Device, cfg.Beam, 20000, rng.New(1), plan.Bias{Thermal: 40})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := newShardRunner(cfg, engine.Shard{Index: 0, Count: 1, Stream: rng.New(3)}, bpl, 2)
	if err != nil {
		t.Fatal(err)
	}
	wblock := func() { wr.runBlockWeighted(runBatchSize) }
	for i := 0; i < 4; i++ {
		wblock()
	}
	if avg := testing.AllocsPerRun(20, wblock); avg != 0 {
		t.Errorf("weighted run loop allocates %.2f times per %d-run block, want 0", avg, runBatchSize)
	}
	if wr.tc.w.draws.N == 0 {
		t.Fatal("weighted run loop drew no interactions; the measurement exercised nothing")
	}

	// Upset runs restore a golden checkpoint into the workload's live
	// buffers and compare its output in a reused buffer (DESIGN.md §18),
	// so an upset-heavy device replays without allocating, exact and
	// weighted alike.
	heavy := cfg
	heavy.Device = device.K20()
	heavy.Device.SensitiveFraction = 0.5
	hpl := plan.Compile(heavy.Device, heavy.Beam, 20000, rng.New(1))
	hbpl, err := plan.CompileBiased(heavy.Device, heavy.Beam, 20000, rng.New(1), plan.Bias{Thermal: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pl   *plan.CampaignPlan
		run  func(*shardRunner)
	}{
		{"upset-heavy", hpl, func(r *shardRunner) { r.runBlock(runBatchSize) }},
		{"upset-heavy weighted", hbpl, func(r *shardRunner) { r.runBlockWeighted(runBatchSize) }},
	} {
		hr, err := newShardRunner(heavy, engine.Shard{Index: 0, Count: 1, Stream: rng.New(5)}, c.pl, 2)
		if err != nil {
			t.Fatal(err)
		}
		hblock := func() { c.run(hr) }
		for i := 0; i < 4; i++ {
			hblock()
		}
		if avg := testing.AllocsPerRun(20, hblock); avg != 0 {
			t.Errorf("%s run loop allocates %.2f times per %d-run block, want 0", c.name, avg, runBatchSize)
		}
		if hr.tc.upsets == 0 || hr.tc.sdc == 0 {
			t.Fatalf("%s run loop saw %d upsets and %d SDCs; the measurement replayed nothing",
				c.name, hr.tc.upsets, hr.tc.sdc)
		}
	}
}

// TestNeutronsSampledCountsCalibrationOnly asserts the telemetry split:
// beam.neutrons_sampled counts exactly the calibration draws, and
// conditioned interaction draws land only under beam.interactions (they
// were previously double-counted into both).
func TestNeutronsSampledCountsCalibrationOnly(t *testing.T) {
	d := device.K20()
	d.SensitiveFraction = 0.2 // boost the rate so interactions certainly occur
	const calSamples = 500
	reg := telemetry.Default
	sampledBefore := reg.Counter("beam.neutrons_sampled").Value()
	interactionsBefore := reg.Counter("beam.interactions").Value()
	_, err := Run(Config{
		Device:          d,
		WorkloadName:    "MxM",
		Beam:            spectrum.ChipIR(),
		DurationSeconds: 50,
		RunSeconds:      1,
		Seed:            3,
		CalSamples:      calSamples,
		Shards:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled := reg.Counter("beam.neutrons_sampled").Value() - sampledBefore
	interactions := reg.Counter("beam.interactions").Value() - interactionsBefore
	if interactions <= 0 {
		t.Fatalf("campaign recorded %d interactions; the split assertion needs a non-trivial campaign", interactions)
	}
	if sampled != calSamples {
		t.Errorf("beam.neutrons_sampled grew by %d, want exactly CalSamples=%d (interactions=%d must not leak in)",
			sampled, calSamples, interactions)
	}
}
