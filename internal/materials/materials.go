// Package materials defines the element and material library used by the
// neutron transport engine: the hydrogen-rich moderators the paper blames
// for thermal-flux enhancement (water, concrete), the absorbers it proposes
// as shields (cadmium, borated plastic), and the chip materials themselves
// (silicon, BPSG).
package materials

import (
	"fmt"
	"sort"

	"neutronsim/internal/physics"
	"neutronsim/internal/rng"
	"neutronsim/internal/units"
)

// Avogadro's number (atoms per mole).
const avogadro = 6.02214076e23

// Element is a nuclide (or natural element treated as one effective
// nuclide) with thermal-region cross-section data.
type Element struct {
	Name string
	// A is the mass number used for scattering kinematics.
	A float64
	// MolarMass in g/mol (≈A for our purposes, set explicitly where the
	// natural element differs).
	MolarMass float64
	// SigmaScatterB is the elastic scattering cross section in barns,
	// treated as energy-independent across the range we transport.
	SigmaScatterB float64
	// SigmaAbsorbThermalB is the 2200 m/s absorption cross section in
	// barns, scaled with 1/v at other energies.
	SigmaAbsorbThermalB float64
	// AbsorbTable, when set, replaces the 1/v law with tabulated
	// evaluated-data-shaped values (used for resonant absorbers such as
	// cadmium).
	AbsorbTable *physics.XSTable
}

// The element table. Values are standard thermal-neutron constants.
var (
	Hydrogen = Element{Name: "H", A: 1, MolarMass: 1.008, SigmaScatterB: 20.4, SigmaAbsorbThermalB: 0.332}
	Carbon   = Element{Name: "C", A: 12, MolarMass: 12.011, SigmaScatterB: 4.74, SigmaAbsorbThermalB: 0.0035}
	Nitrogen = Element{Name: "N", A: 14, MolarMass: 14.007, SigmaScatterB: 10.0, SigmaAbsorbThermalB: 1.9}
	Oxygen   = Element{Name: "O", A: 16, MolarMass: 15.999, SigmaScatterB: 3.76, SigmaAbsorbThermalB: 0.00019}
	Sodium   = Element{Name: "Na", A: 23, MolarMass: 22.99, SigmaScatterB: 3.28, SigmaAbsorbThermalB: 0.53}
	Aluminum = Element{Name: "Al", A: 27, MolarMass: 26.982, SigmaScatterB: 1.41, SigmaAbsorbThermalB: 0.231}
	Silicon  = Element{Name: "Si", A: 28, MolarMass: 28.085, SigmaScatterB: 2.04, SigmaAbsorbThermalB: 0.171}
	Calcium  = Element{Name: "Ca", A: 40, MolarMass: 40.078, SigmaScatterB: 2.83, SigmaAbsorbThermalB: 0.43}
	Iron     = Element{Name: "Fe", A: 56, MolarMass: 55.845, SigmaScatterB: 11.35, SigmaAbsorbThermalB: 2.56}
	Cadmium  = Element{Name: "Cd", A: 112, MolarMass: 112.41, SigmaScatterB: 6.5, SigmaAbsorbThermalB: physics.NaturalCadmiumSigma, AbsorbTable: physics.CadmiumAbsorption}
	Boron10  = Element{Name: "B10", A: 10, MolarMass: 10.013, SigmaScatterB: 2.1, SigmaAbsorbThermalB: physics.Boron10ThermalSigma, AbsorbTable: physics.Boron10Absorption}
	Boron11  = Element{Name: "B11", A: 11, MolarMass: 11.009, SigmaScatterB: 4.84, SigmaAbsorbThermalB: 0.0055}
	Helium3  = Element{Name: "He3", A: 3, MolarMass: 3.016, SigmaScatterB: 3.1, SigmaAbsorbThermalB: physics.Helium3ThermalSigma}
	Phosphor = Element{Name: "P", A: 31, MolarMass: 30.974, SigmaScatterB: 3.31, SigmaAbsorbThermalB: 0.172}
)

// SigmaAbsorb returns the microscopic absorption cross section at energy
// e: tabulated where evaluated data is loaded, 1/v-scaled otherwise.
func (el Element) SigmaAbsorb(e units.Energy) units.CrossSection {
	if el.AbsorbTable != nil {
		return el.AbsorbTable.At(e)
	}
	return physics.OneOverV(units.FromBarns(el.SigmaAbsorbThermalB), e)
}

// SigmaScatter returns the (energy-flat) microscopic scattering cross
// section.
func (el Element) SigmaScatter() units.CrossSection {
	return units.FromBarns(el.SigmaScatterB)
}

// Component is one element of a material with its atomic number density.
type Component struct {
	Element       Element
	NumberDensity float64 // atoms per cm³
}

// Material is a homogeneous mixture with macroscopic cross sections.
type Material struct {
	name       string
	components []Component
}

// WeightFraction pairs an element with its mass fraction for the builder.
type WeightFraction struct {
	Element  Element
	Fraction float64
}

// New builds a material from a bulk density (g/cm³) and element weight
// fractions. Fractions are normalized; number densities follow
// n_i = rho * w_i * N_A / M_i.
func New(name string, density float64, fractions []WeightFraction) (*Material, error) {
	if density <= 0 {
		return nil, fmt.Errorf("materials: %s: non-positive density %v", name, density)
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("materials: %s: no components", name)
	}
	total := 0.0
	for _, f := range fractions {
		if f.Fraction < 0 {
			return nil, fmt.Errorf("materials: %s: negative fraction for %s", name, f.Element.Name)
		}
		total += f.Fraction
	}
	if total <= 0 {
		return nil, fmt.Errorf("materials: %s: zero total fraction", name)
	}
	m := &Material{name: name}
	for _, f := range fractions {
		w := f.Fraction / total
		if w == 0 {
			continue
		}
		m.components = append(m.components, Component{
			Element:       f.Element,
			NumberDensity: density * w * avogadro / f.Element.MolarMass,
		})
	}
	sort.Slice(m.components, func(i, j int) bool {
		return m.components[i].Element.Name < m.components[j].Element.Name
	})
	return m, nil
}

// mustNew panics on error; used only for the vetted built-in catalog.
func mustNew(name string, density float64, fractions []WeightFraction) *Material {
	m, err := New(name, density, fractions)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the material name.
func (m *Material) Name() string { return m.name }

// Components returns a copy of the component list.
func (m *Material) Components() []Component {
	return append([]Component(nil), m.components...)
}

// MacroScatter returns the macroscopic scattering cross section Σs (cm⁻¹).
func (m *Material) MacroScatter() float64 {
	sum := 0.0
	for _, c := range m.components {
		sum += c.NumberDensity * float64(c.Element.SigmaScatter())
	}
	return sum
}

// MacroAbsorb returns the macroscopic absorption cross section Σa (cm⁻¹)
// at energy e (1/v law per element).
func (m *Material) MacroAbsorb(e units.Energy) float64 {
	sum := 0.0
	for _, c := range m.components {
		sum += c.NumberDensity * float64(c.Element.SigmaAbsorb(e))
	}
	return sum
}

// MacroTotal returns Σt = Σs + Σa(E) in cm⁻¹.
func (m *Material) MacroTotal(e units.Energy) float64 {
	return m.MacroScatter() + m.MacroAbsorb(e)
}

// AbsorptionProbability returns Σa/Σt at energy e, the per-collision
// probability that the interaction is an absorption.
func (m *Material) AbsorptionProbability(e units.Energy) float64 {
	t := m.MacroTotal(e)
	if t <= 0 {
		return 0
	}
	return m.MacroAbsorb(e) / t
}

// SampleScatterer picks the nucleus a scattering collision occurs on,
// weighted by each component's contribution to Σs.
func (m *Material) SampleScatterer(s *rng.Stream) Element {
	total := m.MacroScatter()
	if total <= 0 || len(m.components) == 0 {
		return Hydrogen
	}
	u := s.Float64() * total
	acc := 0.0
	for _, c := range m.components {
		acc += c.NumberDensity * float64(c.Element.SigmaScatter())
		if u < acc {
			return c.Element
		}
	}
	return m.components[len(m.components)-1].Element
}

// Built-in catalog ---------------------------------------------------------

// Water is the moderator the paper measured directly (2 in over Tin-II,
// +24% thermal counts) and the cooling-loop fluid in liquid-cooled HPC.
func Water() *Material {
	return mustNew("water", 1.0, []WeightFraction{
		{Hydrogen, 2 * 1.008 / 18.015},
		{Oxygen, 15.999 / 18.015},
	})
}

// Concrete is NIST-like ordinary concrete; floors and walls of data
// centers ("concrete slab floors, cinder block walls", §I).
func Concrete() *Material {
	return mustNew("concrete", 2.3, []WeightFraction{
		{Hydrogen, 0.010},
		{Oxygen, 0.532},
		{Silicon, 0.337},
		{Calcium, 0.044},
		{Aluminum, 0.034},
		{Iron, 0.014},
		{Sodium, 0.029},
	})
}

// Polyethylene (CH₂)n, the reference laboratory moderator.
func Polyethylene() *Material {
	return mustNew("polyethylene", 0.94, []WeightFraction{
		{Hydrogen, 2 * 1.008 / 14.027},
		{Carbon, 12.011 / 14.027},
	})
}

// BoratedPolyethylene is polyethylene loaded with natural boron at the
// given weight fraction (e.g. 0.05 for 5%), the practical thermal shield
// discussed (and rejected for thermal-isolation reasons) in §VI.
func BoratedPolyethylene(boronWeightFraction float64) *Material {
	if boronWeightFraction < 0 {
		boronWeightFraction = 0
	}
	if boronWeightFraction > 0.3 {
		boronWeightFraction = 0.3
	}
	rest := 1 - boronWeightFraction
	b10 := boronWeightFraction * physics.NaturalBoron10Fraction
	b11 := boronWeightFraction * (1 - physics.NaturalBoron10Fraction)
	return mustNew("borated polyethylene", 1.0, []WeightFraction{
		{Hydrogen, rest * 2 * 1.008 / 14.027},
		{Carbon, rest * 12.011 / 14.027},
		{Boron10, b10},
		{Boron11, b11},
	})
}

// CadmiumSheet is metallic cadmium, the thin thermal-neutron shield (§VI).
func CadmiumSheet() *Material {
	return mustNew("cadmium", 8.65, []WeightFraction{{Cadmium, 1}})
}

// SiliconBulk is crystalline silicon, the chip substrate.
func SiliconBulk() *Material {
	return mustNew("silicon", 2.33, []WeightFraction{{Silicon, 1}})
}

// BPSG is borophosphosilicate glass with natural boron — the insulating
// layer whose ¹⁰B content caused the historical 8× error-rate problem
// (baumann1995boron, §II). Boron loading ~4% by weight.
func BPSG() *Material {
	const bFrac = 0.04
	return mustNew("BPSG", 2.2, []WeightFraction{
		{Silicon, (1 - bFrac - 0.04) * 28.085 / 60.08},
		{Oxygen, (1 - bFrac - 0.04) * 2 * 15.999 / 60.08},
		{Phosphor, 0.04},
		{Boron10, bFrac * physics.NaturalBoron10Fraction},
		{Boron11, bFrac * (1 - physics.NaturalBoron10Fraction)},
	})
}

// Air at sea level; essentially transparent at the cm scale.
func Air() *Material {
	return mustNew("air", 1.205e-3, []WeightFraction{
		{Nitrogen, 0.755},
		{Oxygen, 0.232},
	})
}

// Kerosene is jet fuel (dodecane-like CH₂ chains) — the paper lists
// gasoline/fuel tanks among the hydrogen-rich materials that raise the
// thermal flux around a vehicle's electronics.
func Kerosene() *Material {
	// C12H26: hydrogen weight fraction 26·1.008/170.33.
	return mustNew("kerosene", 0.81, []WeightFraction{
		{Hydrogen, 26 * 1.008 / 170.33},
		{Carbon, 12 * 12.011 / 170.33},
	})
}

// LiquidMethane is the cryogenic moderator ROTAX uses to thermalize its
// beam ("the thermalization is achieved by moderation of the neutrons
// using liquid methane", §III-C).
func LiquidMethane() *Material {
	return mustNew("liquid methane", 0.42, []WeightFraction{
		{Hydrogen, 4 * 1.008 / 16.043},
		{Carbon, 12.011 / 16.043},
	})
}

// Helium3Gas returns the ³He fill gas of a proportional counter tube at
// the given pressure in atmospheres (ideal gas at room temperature).
func Helium3Gas(atm float64) *Material {
	if atm <= 0 {
		atm = 1
	}
	// Ideal-gas density of He-3: M * P/(RT) with M = 3.016 g/mol.
	density := 3.016 * atm / (82.057 * 293.15) // g/cm³ (R in cm³·atm/(mol·K))
	return mustNew("helium-3", density, []WeightFraction{{Helium3, 1}})
}
