// Conformance: a campaign that compiles its plan through the shared cache
// must be bit-identical to one that compiled from scratch, for every
// catalog device on both beamlines, at every shard count, and the spectrum
// singletons must not perturb the transport simulator's determinism. The
// tests live in an external package because they drive internal/beam,
// which itself imports internal/plan.
package plan_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"neutronsim/internal/beam"
	"neutronsim/internal/device"
	"neutronsim/internal/materials"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/transport"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// conformanceConfig builds a quick campaign for one device×spectrum cell.
// CalSamples is deliberately non-default so these compilations get their
// own cache keys, and each cell gets a distinct seed so the first run of a
// cell is a genuine cold compile within the test process.
func conformanceConfig(d *device.Device, sp spectrum.Spectrum, seed uint64) beam.Config {
	return beam.Config{
		Device:          d,
		WorkloadName:    workload.ForDeviceKind(d.Kind.String())[0],
		Beam:            sp,
		DurationSeconds: 1,
		Seed:            seed,
		CalSamples:      4000,
	}
}

// TestConformanceCachedRunsBitIdentical runs every catalog device on both
// beamlines twice — the repeat is served by the plan cache — and requires
// the full campaign results to be deeply equal. It also pins the plan
// itself: the shared-cache plan must checksum-match a from-scratch Compile
// fed the canonical calibration stream, which is the memoization identity
// the cache's correctness rests on.
func TestConformanceCachedRunsBitIdentical(t *testing.T) {
	spectra := []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()}
	for di, d := range device.All() {
		for si, sp := range spectra {
			d, sp := d, sp
			seed := 0xC0FFEE00 + uint64(di)*2 + uint64(si)
			t.Run(d.Name+"/"+sp.Name(), func(t *testing.T) {
				t.Parallel()
				cfg := conformanceConfig(d, sp, seed)
				first, err := beam.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				second, err := beam.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Errorf("cached repeat diverged from the first run:\nfirst:  %+v\nsecond: %+v", first, second)
				}
				cached := plan.Shared.For(context.Background(), cfg.Device, cfg.Beam, cfg.CalSamples, cfg.Seed, nil)
				direct := plan.Compile(cfg.Device, cfg.Beam, cfg.CalSamples, plan.CalibrationStream(cfg.Seed))
				if cached.Checksum() != direct.Checksum() {
					t.Error("shared-cache plan differs from a from-scratch Compile")
				}
			})
		}
	}
}

// TestConformanceShardCountsShareOnePlan reruns one campaign at several
// worker counts. All of them hit the same cached plan, and per the
// engine's contract the shard count must never affect results.
func TestConformanceShardCountsShareOnePlan(t *testing.T) {
	cfg := conformanceConfig(device.TitanX(), spectrum.ChipIR(), 0xC0FFEE77)
	ref, err := beam.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Shards = shards
		got, err := beam.Run(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d diverged from the reference run", shards)
		}
	}
}

// TestConformanceTransportRepeatable guards the spectrum singletons: the
// transport simulator samples its source from the now-shared ChipIR/ROTAX
// instances, and repeated simulations with the same seed must stay deeply
// equal.
func TestConformanceTransportRepeatable(t *testing.T) {
	slabs := []transport.Slab{
		{Material: materials.Concrete(), Thickness: 10},
		{Material: materials.Water(), Thickness: 2},
	}
	for _, sp := range []spectrum.Spectrum{spectrum.ChipIR(), spectrum.ROTAX()} {
		source := func(s *rng.Stream) units.Energy { return sp.Sample(s) }
		first, err := transport.Simulate(slabs, 2000, source, rng.New(29))
		if err != nil {
			t.Fatal(err)
		}
		second, err := transport.Simulate(slabs, 2000, source, rng.New(29))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: transport repeat diverged", sp.Name())
		}
	}
}
