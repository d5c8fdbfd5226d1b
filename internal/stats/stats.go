// Package stats provides the statistical estimators used by the
// experiment harnesses: Poisson confidence intervals for beam-test error
// counts, summary statistics, and rate estimation.
package stats

import (
	"errors"
	"math"
)

// ErrNoData is returned by estimators that received an empty sample.
var ErrNoData = errors.New("stats: no data")

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	Std      float64
	Min      float64
	Max      float64
}

// Summarize computes descriptive statistics. It returns ErrNoData for an
// empty sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Variance)
	}
	return s, nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// PoissonCI holds a two-sided confidence interval for a Poisson mean given
// an observed count. Beam experiments report cross sections with such
// intervals ("error bars considering Poisson's 95% confidence interval",
// §V of the paper).
type PoissonCI struct {
	Count      int64
	Lower      float64
	Upper      float64
	Confidence float64
}

// PoissonConfidence computes the exact (Garwood) two-sided interval for a
// Poisson mean from an observed count, via the chi-squared quantile
// identity: lower = qchisq(alpha/2, 2k)/2, upper = qchisq(1-alpha/2, 2k+2)/2.
func PoissonConfidence(count int64, confidence float64) PoissonCI {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	ci := PoissonCI{Count: count, Confidence: confidence}
	// Shared with the weighted estimators (PoissonBoundsFloat) so an
	// integer count and the same count arriving as a float ESS produce
	// bit-identical bounds.
	ci.Lower, ci.Upper = PoissonBoundsFloat(float64(count), confidence)
	return ci
}

// Poisson95 is shorthand for the paper's standard 95% interval.
func Poisson95(count int64) PoissonCI { return PoissonConfidence(count, 0.95) }

// chiSquaredQuantile returns the p-quantile of a chi-squared distribution
// with k degrees of freedom, using the Wilson-Hilferty normal approximation
// refined by a few Newton steps on the regularized gamma CDF.
func chiSquaredQuantile(p, k float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Wilson-Hilferty starting point.
	z := normalQuantile(p)
	a := 2.0 / (9.0 * k)
	x := k * math.Pow(1-a+z*math.Sqrt(a), 3)
	if x <= 0 {
		x = 1e-8
	}
	// Newton refinement on F(x) = P(k/2, x/2) = p.
	halfK := k / 2
	for i := 0; i < 40; i++ {
		fx := regularizedGammaP(halfK, x/2) - p
		// pdf of chi-squared.
		pdf := math.Exp((halfK-1)*math.Log(x/2)-x/2-lgamma(halfK)) / 2
		if pdf <= 0 {
			break
		}
		step := fx / pdf
		nx := x - step
		if nx <= 0 {
			nx = x / 2
		}
		if math.Abs(nx-x) < 1e-12*math.Max(1, x) {
			x = nx
			break
		}
		x = nx
	}
	return x
}

// normalQuantile is the inverse standard-normal CDF (Acklam's rational
// approximation; relative error < 1.15e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// regularizedGammaP computes P(a, x), the lower regularized incomplete
// gamma function, by series (x < a+1) or continued fraction (otherwise).
func regularizedGammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x < a+1 {
		// Series expansion.
		ap := a
		sum := 1.0 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lgamma(a))
	}
	// Continued fraction for Q(a,x), then P = 1-Q (Lentz's algorithm).
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lgamma(a)) * h
	return 1 - q
}

// RateEstimate is an estimated event rate (events per unit exposure) with a
// Poisson confidence interval, the core quantity behind every cross section
// in the paper (sigma = errors / fluence).
type RateEstimate struct {
	Events   int64
	Exposure float64 // fluence, time, etc.; must be > 0
	Rate     float64
	Lower    float64
	Upper    float64
}

// EstimateRate computes events/exposure with a 95% Poisson interval.
// It returns an error for non-positive exposure.
func EstimateRate(events int64, exposure float64) (RateEstimate, error) {
	if exposure <= 0 {
		return RateEstimate{}, errors.New("stats: non-positive exposure")
	}
	ci := Poisson95(events)
	return RateEstimate{
		Events:   events,
		Exposure: exposure,
		Rate:     float64(events) / exposure,
		Lower:    ci.Lower / exposure,
		Upper:    ci.Upper / exposure,
	}, nil
}

// RatioCI propagates two independent rate estimates into a ratio with an
// approximate 95% interval (log-normal error propagation), used for the
// paper's fast:thermal cross-section ratios (Fig. cs_ratio).
func RatioCI(num, den RateEstimate) (ratio, lower, upper float64) {
	if den.Rate == 0 || num.Rate == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	ratio = num.Rate / den.Rate
	// Approximate relative sigma of a Poisson count k is 1/sqrt(k).
	relVar := 0.0
	if num.Events > 0 {
		relVar += 1 / float64(num.Events)
	}
	if den.Events > 0 {
		relVar += 1 / float64(den.Events)
	}
	sigma := math.Sqrt(relVar)
	lower = ratio * math.Exp(-1.96*sigma)
	upper = ratio * math.Exp(1.96*sigma)
	return ratio, lower, upper
}
