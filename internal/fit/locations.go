// Package fit converts device cross sections into failure rates (FIT) for
// real environments, the final step of the paper's analysis (§VI): natural
// neutron fluxes at a site, modified by the surrounding materials (concrete
// floors, water cooling) and the weather, multiply the measured cross
// sections into SDC and DUE rates, and expose how much of the total is due
// to thermal neutrons.
package fit

import (
	"errors"
	"fmt"
	"math"
)

// Location carries the natural per-band neutron fluxes of a site, before
// any building-material adjustment.
type Location struct {
	Name       string
	AltitudeM  float64
	AltitudeFt float64
	// FastFluxPerHour is the >1 MeV flux in n/cm²/h.
	FastFluxPerHour float64
	// ThermalFluxPerHour is the outdoor (unadjusted) thermal flux.
	ThermalFluxPerHour float64
	// EpithermalFluxPerHour is the intermediate band.
	EpithermalFluxPerHour float64
}

// Reference flux calibration. The NYC fast flux is the JEDEC-style
// reference (~13 n/cm²/h above 10 MeV). The thermal:fast ratios are
// derived from the paper's quoted FIT shares (commented Fig.
// "FIT-rates-all-devices"):
//
//   - Xeon Phi NYC SDC thermal share 4.2% with a 10.14 cross-section
//     ratio implies an *adjusted* thermal:fast flux ratio of ≈0.445;
//     removing the paper's +44% material adjustment gives a bare ratio
//     of ≈0.31.
//   - K20 Leadville SDC share 29% with ratio ≈2 (and the APU CPU+GPU DUE
//     share of 39% with ratio 1.18, and the Xeon Phi DUE share of 10.6%
//     with ratio 6.37 — all three agree) implies an adjusted thermal:fast
//     ratio of ≈0.78 at altitude (bare ≈0.54).
//
// The thermal flux therefore scales more steeply with altitude than the
// fast flux; both scalings are exponential in altitude with the scale
// heights below.
const (
	nycFastFluxPerHour    = 13.0
	nycThermalFluxPerHour = 0.31 * nycFastFluxPerHour // ≈4.0 n/cm²/h
	nycEpithermalPerHour  = 5.0

	// The altitude dependence is exponential in *atmospheric depth* (the
	// JEDEC form), not in altitude itself: factor = exp(Δdepth/L) with
	// depth(a) = seaLevelDepth·exp(-a/scaleHeight). The attenuation
	// lengths are tuned so Leadville (3094 m) reproduces the classic
	// 12.9× fast acceleration and the paper-consistent thermal:fast
	// ratio of ≈0.54 (bare).
	seaLevelDepthGCm2      = 1033.7
	atmosphereScaleM       = 8434.0
	fastAttenuationGCm2    = 124.0
	thermalAttenuationGCm2 = 101.7

	// Above the troposphere the buildup reverses: the cosmic-ray shower
	// maximizes near 18.3 km (the Pfotzer maximum, the paper's "maximum
	// at about 60,000 ft") and declines above it.
	pfotzerAltitudeM    = 18300.0
	pfotzerDeclineScale = 7000.0

	leadvilleAltitudeM = 3094.0
)

// atmosphericDepth returns the overhead atmospheric depth in g/cm².
func atmosphericDepth(altitudeM float64) float64 {
	return seaLevelDepthGCm2 * math.Exp(-altitudeM/atmosphereScaleM)
}

// altitudeFactor returns the flux multiplier relative to sea level for the
// given attenuation length, with the Pfotzer rolloff above 18.3 km.
func altitudeFactor(altitudeM, attenuationGCm2 float64) float64 {
	capped := altitudeM
	if capped > pfotzerAltitudeM {
		capped = pfotzerAltitudeM
	}
	f := math.Exp((seaLevelDepthGCm2 - atmosphericDepth(capped)) / attenuationGCm2)
	if altitudeM > pfotzerAltitudeM {
		f *= math.Exp(-(altitudeM - pfotzerAltitudeM) / pfotzerDeclineScale)
	}
	return f
}

// NYC is the sea-level reference site used by the paper's FIT figure.
func NYC() Location {
	return Location{
		Name:                  "New York City",
		AltitudeM:             0,
		AltitudeFt:            0,
		FastFluxPerHour:       nycFastFluxPerHour,
		ThermalFluxPerHour:    nycThermalFluxPerHour,
		EpithermalFluxPerHour: nycEpithermalPerHour,
	}
}

// Leadville is the high-altitude site (10,151 ft) of the paper's FIT
// figure.
func Leadville() Location {
	return AtAltitude("Leadville, CO", leadvilleAltitudeM)
}

// AtAltitude scales the NYC reference fluxes to the given altitude, valid
// from sea level through aviation altitudes (Pfotzer maximum at 18.3 km).
func AtAltitude(name string, meters float64) Location {
	if meters < 0 {
		meters = 0
	}
	fastFactor := altitudeFactor(meters, fastAttenuationGCm2)
	thermalFactor := altitudeFactor(meters, thermalAttenuationGCm2)
	return Location{
		Name:                  name,
		AltitudeM:             meters,
		AltitudeFt:            meters * 3.28084,
		FastFluxPerHour:       nycFastFluxPerHour * fastFactor,
		ThermalFluxPerHour:    nycThermalFluxPerHour * thermalFactor,
		EpithermalFluxPerHour: nycEpithermalPerHour * fastFactor,
	}
}

// Environment-material adjustments (§VI). WaterCoolingEnhancement is the
// Tin-II measurement (+24% with two inches of water); ConcreteEnhancement
// is the slab-floor adjustment (≈+20%); together they are the paper's
// "overall increase of 44% in the thermal flux". RainFactor is Ziegler's
// thunderstorm ×2.
const (
	WaterCoolingEnhancement = 0.24
	ConcreteEnhancement     = 0.20
	RainFactor              = 2.0
)

// Environment is a located device's full surroundings.
type Environment struct {
	Location Location
	// ConcreteFloor adds the slab back-scatter enhancement.
	ConcreteFloor bool
	// WaterCooling adds the cooling-loop enhancement.
	WaterCooling bool
	// Raining doubles the thermal flux (storm moderation).
	Raining bool
	// ExtraThermalFactor multiplies the thermal flux for bespoke
	// scenarios (e.g. transport-engine results); 0 means 1.
	ExtraThermalFactor float64
}

// Validate checks the environment.
func (e Environment) Validate() error {
	if e.Location.FastFluxPerHour <= 0 && e.Location.ThermalFluxPerHour <= 0 {
		return errors.New("fit: environment has no flux")
	}
	if e.ExtraThermalFactor < 0 {
		return fmt.Errorf("fit: negative extra thermal factor %v", e.ExtraThermalFactor)
	}
	return nil
}

// ThermalFluxPerHour returns the adjusted thermal flux.
func (e Environment) ThermalFluxPerHour() float64 {
	f := e.Location.ThermalFluxPerHour
	enhancement := 1.0
	if e.ConcreteFloor {
		enhancement += ConcreteEnhancement
	}
	if e.WaterCooling {
		enhancement += WaterCoolingEnhancement
	}
	f *= enhancement
	if e.Raining {
		f *= RainFactor
	}
	if e.ExtraThermalFactor > 0 {
		f *= e.ExtraThermalFactor
	}
	return f
}

// FastFluxPerHour returns the fast flux (materials barely perturb it).
func (e Environment) FastFluxPerHour() float64 {
	return e.Location.FastFluxPerHour
}

// DataCenter is the paper's FIT-figure setting: concrete slab plus water
// cooling (+44% thermal) at the given location.
func DataCenter(l Location) Environment {
	return Environment{Location: l, ConcreteFloor: true, WaterCooling: true}
}

// String describes the environment.
func (e Environment) String() string {
	s := e.Location.Name
	if e.ConcreteFloor {
		s += "+concrete"
	}
	if e.WaterCooling {
		s += "+water"
	}
	if e.Raining {
		s += "+rain"
	}
	return s
}
