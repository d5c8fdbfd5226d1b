package stats

import (
	"errors"
	"math"
)

// Histogram is a fixed-bin histogram over a logarithmic axis. Log-binned
// histograms with per-lethargy normalization are how the paper presents
// beamline spectra (Fig. 2, "lethargy scale").
type Histogram struct {
	edges  []float64 // len = bins+1, strictly increasing
	counts []float64
	under  float64
	over   float64
}

// NewLogHistogram builds a histogram with log-uniform bins on [lo, hi),
// requiring 0 < lo < hi. This is the natural binning for neutron spectra
// spanning meV to GeV.
func NewLogHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || lo <= 0 || hi <= lo {
		return nil, errors.New("stats: invalid log histogram range")
	}
	edges := make([]float64, bins+1)
	ratio := math.Log(hi / lo)
	for i := range edges {
		edges[i] = lo * math.Exp(ratio*float64(i)/float64(bins))
	}
	edges[bins] = hi
	return &Histogram{edges: edges, counts: make([]float64, bins)}, nil
}

// Add records one observation with unit weight.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted records one observation with the given weight.
func (h *Histogram) AddWeighted(x, w float64) {
	i := h.binIndex(x)
	switch {
	case i < 0:
		h.under += w
	case i >= len(h.counts):
		h.over += w
	default:
		h.counts[i] += w
	}
}

func (h *Histogram) binIndex(x float64) int {
	lo, hi := h.edges[0], h.edges[len(h.edges)-1]
	if x < lo {
		return -1
	}
	if x >= hi {
		return len(h.counts)
	}
	return int(math.Log(x/lo) / math.Log(hi/lo) * float64(len(h.counts)))
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the weight in bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// BinCenter returns the representative x of bin i, the geometric mean of
// its edges.
func (h *Histogram) BinCenter(i int) float64 {
	return math.Sqrt(h.edges[i] * h.edges[i+1])
}

// Total returns the total recorded weight including under/overflow.
func (h *Histogram) Total() float64 {
	t := h.under + h.over
	for _, c := range h.counts {
		t += c
	}
	return t
}

// PerLethargy returns counts normalized per unit lethargy:
// counts[i] / ln(edge[i+1]/edge[i]). On a log-x plot this is the standard
// "flux per lethargy" representation where area is proportional to flux
// (Fig. 2 of the paper).
func (h *Histogram) PerLethargy() []float64 {
	out := make([]float64, len(h.counts))
	for i, c := range h.counts {
		du := math.Log(h.edges[i+1] / h.edges[i])
		if du > 0 {
			out[i] = c / du
		}
	}
	return out
}

// IntegralBetween sums bin weights whose centers lie within [lo, hi).
func (h *Histogram) IntegralBetween(lo, hi float64) float64 {
	sum := 0.0
	for i, c := range h.counts {
		x := h.BinCenter(i)
		if x >= lo && x < hi {
			sum += c
		}
	}
	return sum
}
