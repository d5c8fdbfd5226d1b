package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SchemaVersion identifies the snapshot JSON layout.
const SchemaVersion = "neutronsim.telemetry/v1"

// Snapshot is the machine-readable state of a registry at one instant —
// the artifact written by the -metrics-out flag so sweeps and benches
// produce comparable perf trajectories across commits.
type Snapshot struct {
	Schema   string                       `json:"schema"`
	Program  string                       `json:"program,omitempty"`
	TakenAt  time.Time                    `json:"taken_at"`
	Counters map[string]int64             `json:"counters,omitempty"`
	Gauges   map[string]float64           `json:"gauges,omitempty"`
	Hists    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans    map[string]SpanSnapshot      `json:"spans,omitempty"`
}

// HistogramSnapshot summarizes one histogram's distribution.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// SpanSnapshot is the wall-time rollup of one span path. Paths are
// slash-joined hierarchies ("core.assess/beam.campaign/beam.runs").
type SpanSnapshot struct {
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_seconds"`
	MeanSec  float64 `json:"mean_seconds"`
	MinSec   float64 `json:"min_seconds"`
	MaxSec   float64 `json:"max_seconds"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Schema:   SchemaVersion,
		Program:  r.program,
		TakenAt:  time.Now().UTC(),
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistogramSnapshot{},
		Spans:    map[string]SpanSnapshot{},
	}
	for _, name := range sortedKeys(r.counters) {
		s.Counters[name] = r.counters[name].Value()
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges[name] = r.gauges[name].Value()
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		if hs.Count > 0 {
			hs.Mean = hs.Sum / float64(hs.Count)
			hs.Min = h.Quantile(0)
			hs.Max = h.Quantile(1)
			hs.P50 = h.Quantile(0.50)
			hs.P90 = h.Quantile(0.90)
			hs.P99 = h.Quantile(0.99)
		}
		s.Hists[name] = hs
	}
	for _, path := range sortedKeys(r.spans) {
		st := r.spans[path]
		n := st.count.Load()
		if n == 0 {
			continue
		}
		total := float64(st.totalNs.Load()) / 1e9
		s.Spans[path] = SpanSnapshot{
			Count:    n,
			TotalSec: total,
			MeanSec:  total / float64(n),
			MinSec:   float64(st.minNs.Load()) / 1e9,
			MaxSec:   float64(st.maxNs.Load()) / 1e9,
		}
	}
	return s
}

// WriteSnapshot writes the registry's snapshot as indented JSON to path.
// The write is atomic — a temp file in the same directory renamed over
// the target — so a scraper polling the file mid-write never reads a torn
// document.
func (r *Registry) WriteSnapshot(path string) error {
	if err := WriteJSONAtomic(path, r.Snapshot()); err != nil {
		return fmt.Errorf("telemetry: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot written by WriteSnapshot and verifies its
// schema tag.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: read snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("telemetry: parse snapshot: %w", err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("telemetry: unknown snapshot schema %q", s.Schema)
	}
	return &s, nil
}
