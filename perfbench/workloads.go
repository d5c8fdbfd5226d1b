package main

import (
	"math"
	"math/rand"

	"neutronsim/internal/server"
	"neutronsim/internal/workload"
)

// Request generators: serve-explore's traffic, and the hot traffic of
// its traced run's cache and surrogate probe. Every input is drawn from
// the workload seed; the server sees only the generated requests.

// hotKeys is the hot probe's working set: 24 small beam campaigns (every
// kernel of the paper on a device of its class) and 24 exact
// design-space cross sections. 48 entries fit the server's default
// 256-entry result cache, so after warm-up every repeat is a cache hit.
const hotKeys = 48

// hotRepeatShare is the share of hot traffic that repeats a hot
// key; the rest are in-hull cross-section queries with a tolerance the
// surrogate can meet.
const hotRepeatShare = 0.7

// zipfS is the skew of hot-key popularity.
const zipfS = 1.1

// Monte Carlo budgets. The hot probe's keys are cheap to warm up. An
// explore cross section or shielding what-if takes a few milliseconds,
// so exact Monte Carlo outweighs the three HTTP round trips of an exact
// request while the rates stay high enough for the latency percentiles
// to have hundreds of samples.
const (
	hotXsectionSamples     = 5000
	exploreXsectionSamples = 20000
	exploreNeutrons        = 1500
)

// kernelDevice runs each kernel on a device of the class the paper ran
// it on.
func kernelDevice(kernel string) string {
	switch kernel {
	case "SC", "CED", "BFS":
		return "APU-CPU"
	case "MNIST":
		return "Zynq7000"
	}
	return "K20"
}

// inHullPoint draws a design point strictly inside the surrogate's
// training grid (surrogate.DefaultGrid: boron 1e12–1e15 /cm², Qcrit
// 1–8 fC).
func inHullPoint(rng *rand.Rand) (boron, qcrit float64) {
	boron = math.Pow(10, 12.1+2.8*rng.Float64())
	qcrit = math.Exp(math.Log(1.05) + (math.Log(7.6)-math.Log(1.05))*rng.Float64())
	return boron, qcrit
}

func spectrumName(rng *rand.Rand) string {
	return []string{"ROTAX", "ChipIR"}[rng.Intn(2)]
}

// hotGen generates the hot probe's traffic.
type hotGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	keys []request
}

func newHotGen(seed uint64) *hotGen {
	rng := rand.New(rand.NewSource(int64(seed)))
	g := &hotGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, hotKeys-1)}
	kernels := workload.Names()
	for i := 0; i < hotKeys/2; i++ {
		k := kernels[i%len(kernels)]
		g.keys = append(g.keys, newRequest(&server.CampaignRequest{
			Kind: server.KindBeam,
			Seed: rng.Uint64() >> 1,
			Beam: &server.BeamParams{
				Device:          kernelDevice(k),
				Workload:        k,
				Spectrum:        spectrumName(rng),
				DurationSeconds: 1 + float64(rng.Intn(3)),
				CalSamples:      2000,
			},
		}))
	}
	for i := 0; i < hotKeys/2; i++ {
		boron, qcrit := inHullPoint(rng)
		g.keys = append(g.keys, newRequest(&server.CampaignRequest{
			Kind: server.KindXsection,
			Seed: rng.Uint64() >> 1,
			Xsection: &server.XsectionParams{
				BoronPerCm2: boron,
				QcritFC:     qcrit,
				Spectrum:    spectrumName(rng),
				Samples:     hotXsectionSamples,
			},
		}))
	}
	return g
}

func (g *hotGen) next() request {
	if g.rng.Float64() < hotRepeatShare {
		return g.keys[g.zipf.Uint64()]
	}
	boron, qcrit := inHullPoint(g.rng)
	return newRequest(&server.CampaignRequest{
		Kind:      server.KindXsection,
		Seed:      g.rng.Uint64() >> 1,
		Tolerance: 0.05 + 0.15*g.rng.Float64(),
		Xsection: &server.XsectionParams{
			BoronPerCm2: boron,
			QcritFC:     qcrit,
			Spectrum:    spectrumName(g.rng),
		},
	})
}

// exploreGen generates serve-explore traffic: design points that never
// repeat (each carries a fresh seed), so every request misses the result
// cache and runs exact Monte Carlo through the job queue.
type exploreGen struct {
	rng  *rand.Rand
	seed uint64 // next campaign seed; strictly increasing keeps keys unique
}

func newExploreGen(seed uint64) *exploreGen {
	return &exploreGen{rng: rand.New(rand.NewSource(int64(seed) ^ 0x5eed)), seed: seed << 24}
}

// shieldMaterials are the slab materials explore's shielding what-ifs
// choose from.
var shieldMaterials = []string{"water", "polyethylene", "borated polyethylene", "concrete", "cadmium"}

func (g *exploreGen) next() request {
	g.seed++
	r := &server.CampaignRequest{Seed: g.seed}
	switch u := g.rng.Float64(); {
	case u < 0.4: // exact by request: tolerance 0
		boron, qcrit := inHullPoint(g.rng)
		r.Kind = server.KindXsection
		r.Xsection = &server.XsectionParams{BoronPerCm2: boron, QcritFC: qcrit, Spectrum: spectrumName(g.rng), Samples: exploreXsectionSamples}
	case u < 0.6: // tolerance set, but boron beyond the surrogate's hull
		r.Kind = server.KindXsection
		r.Tolerance = 0.1
		r.Xsection = &server.XsectionParams{
			BoronPerCm2: math.Pow(10, 15.5+2*g.rng.Float64()),
			QcritFC:     1 + 7*g.rng.Float64(),
			Spectrum:    spectrumName(g.rng),
			Samples:     exploreXsectionSamples,
		}
	default: // slab-shielding what-if
		r.Kind = server.KindTransport
		slabs := []server.SlabParam{{Material: shieldMaterials[g.rng.Intn(len(shieldMaterials))], ThicknessCm: 0.3 + 1.2*g.rng.Float64()}}
		if g.rng.Intn(2) == 0 {
			slabs = append(slabs, server.SlabParam{Material: shieldMaterials[g.rng.Intn(len(shieldMaterials))], ThicknessCm: 0.2 + 0.6*g.rng.Float64()})
		}
		r.Transport = &server.TransportParams{Slabs: slabs, Neutrons: exploreNeutrons, Source: spectrumName(g.rng)}
	}
	return newRequest(r)
}

// generator is a request source.
type generator interface{ next() request }

func take(g generator, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
