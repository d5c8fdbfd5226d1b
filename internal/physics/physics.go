// Package physics implements the neutron-interaction physics underlying the
// paper's reliability arguments: the ¹⁰B(n,α)⁷Li thermal capture reaction,
// 1/v absorption laws, elastic-scattering moderation kinematics, and the
// conversion from deposited energy to collected charge in silicon.
package physics

import (
	"math"

	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// Reference thermal energy at which tabulated capture cross sections are
// quoted (room-temperature Maxwellian most-probable energy, 25.3 meV).
const ReferenceThermalEnergy units.Energy = 0.0253

// Thermal (2200 m/s) capture cross sections of the absorbers relevant to
// the paper and detector, in barns.
const (
	// Boron10ThermalSigma is the famous ~3840 b ¹⁰B capture cross section
	// that makes boron-containing chips thermally sensitive (§I).
	Boron10ThermalSigma = 3840
	// Helium3ThermalSigma drives the Tin-II ³He proportional tubes (§III-D).
	Helium3ThermalSigma = 5330
	// NaturalCadmiumSigma is the reason thin Cd sheets block thermal
	// neutrons (§VI).
	NaturalCadmiumSigma = 2520
	// Boron isotopics (§II): ~20% of natural boron is ¹⁰B.
	NaturalBoron10Fraction = 0.199
)

// OneOverV scales a cross section tabulated at the 25.3 meV reference down
// or up with the 1/v law: sigma(E) = sigma0 * sqrt(E0/E). It is the
// dominant energy dependence of ¹⁰B, ³He and Cd absorption in the thermal
// range. Energies above 1 keV return a small constant floor, since 1/v
// extrapolation far beyond the resonance region is unphysical.
func OneOverV(sigma0 units.CrossSection, e units.Energy) units.CrossSection {
	if e <= 0 {
		return sigma0 * 1e3 // cold-neutron cap to keep the law finite
	}
	const ceiling = 1e3 // do not extrapolate more than 1000× above reference
	scale := math.Sqrt(float64(ReferenceThermalEnergy) / float64(e))
	if scale > ceiling {
		scale = ceiling
	}
	if e > 1e3 {
		// Fast region: capture is negligible; keep a tiny floor.
		return sigma0 * 1e-5
	}
	return units.CrossSection(float64(sigma0) * scale)
}

// Boron10Capture returns the ¹⁰B(n,α) microscopic cross section at energy e.
func Boron10Capture(e units.Energy) units.CrossSection {
	return OneOverV(units.FromBarns(Boron10ThermalSigma), e)
}

// Secondary is a charged secondary particle created by a neutron
// interaction inside the device or detector.
type Secondary struct {
	Kind   SecondaryKind
	Energy units.Energy
}

// SecondaryKind enumerates charged secondaries relevant to upsets.
type SecondaryKind int

// Secondary particle kinds.
const (
	Alpha SecondaryKind = iota + 1
	Lithium7
	Proton
	Triton
	SiliconRecoil
	Gamma
)

// String returns the particle name.
func (k SecondaryKind) String() string {
	switch k {
	case Alpha:
		return "alpha"
	case Lithium7:
		return "7Li"
	case Proton:
		return "proton"
	case Triton:
		return "triton"
	case SiliconRecoil:
		return "Si recoil"
	case Gamma:
		return "gamma"
	default:
		return "unknown"
	}
}

// Boron capture branch energies (MeV). 94% of captures go to the excited
// ⁷Li state (1.47 MeV α + 0.84 MeV Li + 478 keV γ); 6% to the ground state
// (1.78 MeV α + 1.01 MeV Li). The 1.47 MeV alpha is the particle the paper
// singles out (§I).
const (
	boronExcitedBranch = 0.94
	alphaExcitedMeV    = 1.47
	lithiumExcitedMeV  = 0.84
	alphaGroundMeV     = 1.78
	lithiumGroundMeV   = 1.01
	lithiumGammaMeV    = 0.478
)

// MaxCaptureProducts is the largest number of secondaries a single capture
// emits; callers sizing scratch for AppendBoronCaptureProducts can use a
// [MaxCaptureProducts]Secondary stack buffer.
const MaxCaptureProducts = 3

// AppendBoronCaptureProducts samples the charged products of one
// ¹⁰B(n,α)⁷Li capture and appends them to dst, returning the extended
// slice. The first two products are always the alpha and the ⁷Li ion — the
// particles that can upset a cell. Appending into caller-owned scratch
// (e.g. a [MaxCaptureProducts]Secondary stack array) keeps Monte Carlo
// inner loops allocation-free.
func AppendBoronCaptureProducts(dst []Secondary, s *rng.Stream) []Secondary {
	if s.Bernoulli(boronExcitedBranch) {
		return append(dst,
			Secondary{Kind: Alpha, Energy: units.Energy(alphaExcitedMeV * 1e6)},
			Secondary{Kind: Lithium7, Energy: units.Energy(lithiumExcitedMeV * 1e6)},
			Secondary{Kind: Gamma, Energy: units.Energy(lithiumGammaMeV * 1e6)},
		)
	}
	return append(dst,
		Secondary{Kind: Alpha, Energy: units.Energy(alphaGroundMeV * 1e6)},
		Secondary{Kind: Lithium7, Energy: units.Energy(lithiumGroundMeV * 1e6)},
	)
}

// Elastic-scattering kinematics ------------------------------------------------

// ElasticAlpha returns alpha = ((A-1)/(A+1))², the minimum fractional energy
// retained after an elastic collision with a nucleus of mass number A.
func ElasticAlpha(a float64) float64 {
	r := (a - 1) / (a + 1)
	return r * r
}

// ScatterEnergy samples the post-collision energy of a neutron of energy e
// elastically scattering off a nucleus of mass number A, assuming isotropy
// in the center-of-mass frame (the textbook slowing-down model): E' is
// uniform on [αE, E].
func ScatterEnergy(e units.Energy, a float64, s *rng.Stream) units.Energy {
	al := ElasticAlpha(a)
	return units.Energy(float64(e) * (al + (1-al)*s.Float64()))
}

// Charge deposition ------------------------------------------------------------

// EnergyPerPairSi is the mean energy to create one electron-hole pair in
// silicon (3.6 eV).
const EnergyPerPairSi = 3.6

// ChargeFC converts a deposited energy into collected charge in
// femtocoulombs: Q = E/3.6 eV pairs × 1.602e-19 C ≈ 44.5 fC per MeV.
func ChargeFC(e units.Energy) float64 {
	const elementaryChargeFC = 1.602176634e-4 // fC per electron
	return float64(e) / EnergyPerPairSi * elementaryChargeFC
}

// DepositedCharge samples the charge (fC) a secondary deposits inside a
// sensitive volume. Only a geometry- and range-dependent fraction of the
// particle energy lands in the tiny sensitive node, modeled as a Beta-like
// fraction with mean depending on the particle kind: short-range heavy ions
// (Li, Si recoil) deposit densely and locally; alphas have longer range and
// typically leave a smaller fraction in any one node; gammas deposit
// essentially nothing.
func DepositedCharge(sec Secondary, s *rng.Stream) float64 {
	var meanFrac float64
	switch sec.Kind {
	case Alpha:
		meanFrac = 0.18
	case Lithium7:
		meanFrac = 0.35
	case Proton:
		meanFrac = 0.10
	case Triton:
		meanFrac = 0.15
	case SiliconRecoil:
		meanFrac = 0.45
	case Gamma:
		return 0
	default:
		return 0
	}
	// Triangular-ish sampling around the mean fraction via the average of
	// two uniforms, scaled to [0, 2*meanFrac] (clamped at 1).
	frac := meanFrac * (s.Float64() + s.Float64())
	if frac > 1 {
		frac = 1
	}
	return ChargeFC(units.Energy(float64(sec.Energy) * frac))
}

// FastSiliconSecondary samples the dominant charged secondary from a fast
// neutron interacting in silicon: mostly elastic Si recoils, with a tail of
// (n,α)/(n,p) reaction products above their ~2.7/4 MeV thresholds. The
// returned secondary is what the device model converts to charge. It
// returns by value and never allocates.
func FastSiliconSecondary(e units.Energy, s *rng.Stream) Secondary {
	eMeV := e.MeV()
	// Reaction channels open progressively with energy.
	if eMeV > 4 && s.Bernoulli(0.12) {
		// ²⁸Si(n,α)²⁵Mg-type channel: alpha carries a fair share.
		return Secondary{Kind: Alpha, Energy: units.Energy((0.3 + 0.3*s.Float64()) * eMeV * 1e6)}
	}
	if eMeV > 2.7 && s.Bernoulli(0.08) {
		return Secondary{Kind: Proton, Energy: units.Energy((0.2 + 0.4*s.Float64()) * eMeV * 1e6)}
	}
	// Elastic recoil: E_recoil uniform on [0, 4A/(A+1)² E] ≈ [0, 0.133E]
	// for A=28.
	const maxFrac = 4 * 28.0 / (29.0 * 29.0)
	return Secondary{
		Kind:   SiliconRecoil,
		Energy: units.Energy(float64(e) * maxFrac * s.Float64()),
	}
}

// EnergyBand labels the coarse neutron energy regions used throughout the
// paper's analysis.
type EnergyBand int

// Energy bands.
const (
	BandThermal    EnergyBand = iota + 1 // E < 0.5 eV
	BandEpithermal                       // 0.5 eV <= E < 1 MeV
	BandFast                             // E >= 1 MeV
)

// NumBands is the number of defined energy bands. Band values are
// 1..NumBands, so a fixed [NumBands + 1]int64 array indexed by band is the
// allocation-free replacement for a map keyed by EnergyBand in tally hot
// paths.
const NumBands = 3

// String names the band.
func (b EnergyBand) String() string {
	switch b {
	case BandThermal:
		return "thermal"
	case BandEpithermal:
		return "epithermal"
	case BandFast:
		return "fast"
	default:
		return "unknown"
	}
}

// Classify assigns an energy to its band using the paper's boundaries.
func Classify(e units.Energy) EnergyBand {
	switch {
	case e.IsThermal():
		return BandThermal
	case e.IsFast():
		return BandFast
	default:
		return BandEpithermal
	}
}
