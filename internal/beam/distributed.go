// Distributed shard-range execution: the beam-campaign surface of the
// cluster protocol (internal/cluster, DESIGN.md §15).
//
// A campaign's shard plan is a pure function of (Config.Seed, ShardGrain,
// runs), and every shard's tally is a pure function of (Config, shard
// index). The coordinator therefore partitions the plan into half-open
// shard-index ranges, peers execute ranges with RunRange, and the
// coordinator folds the returned per-shard tallies with AssemblePartials
// — the same merge, in the same shard order, as a single-node RunContext.
// Re-executing a range (a re-dispatch after a worker failure) is
// idempotent: it can only reproduce the identical tallies.
package beam

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"neutronsim/internal/engine"
	"neutronsim/internal/physics"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
)

// ShardRange is a half-open range [Lo, Hi) of campaign shard indices.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of shards the range covers.
func (r ShardRange) Len() int { return r.Hi - r.Lo }

func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Info is the deterministic decomposition of a campaign: how many runs it
// auto-tunes to, the shard grain, and the resulting shard count. Every
// node computing Info for the same Config derives identical values, which
// is what lets a coordinator partition work it will never execute.
type Info struct {
	Runs       int     `json:"runs"`
	Grain      int     `json:"grain"`
	Shards     int     `json:"shards"`
	RunSeconds float64 `json:"run_seconds"`
}

// PlanInfo compiles (or cache-hits) the campaign plan and returns the
// shard decomposition.
func PlanInfo(ctx context.Context, cfg Config) (Info, error) {
	s, err := prepare(ctx, cfg)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Runs:       s.runs,
		Grain:      s.grain,
		Shards:     len(engine.Plan(s.runs, s.grain)),
		RunSeconds: s.runSeconds,
	}, nil
}

// TallyWire is one shard's tally in wire form: the exported mirror of
// shardTally, shipped un-merged so the receiving coordinator can fold
// shards in global shard order exactly as a single-node merge would.
type TallyWire struct {
	SDC          int64 `json:"sdc"`
	DUE          int64 `json:"due"`
	Masked       int64 `json:"masked"`
	Upsets       int64 `json:"upsets"`
	Reprograms   int64 `json:"reprograms"`
	Interactions int64 `json:"interactions"`
	// ByBand is indexed by band value (1..physics.NumBands; index 0 unused),
	// matching the shard tally's fixed array.
	ByBand []int64 `json:"by_band"`
	// Weighted carries the biased campaign's per-shard weighted tallies,
	// with Kahan compensation terms intact (stats.WeightedWire), so the
	// coordinator's fold is bit-identical to a local one. nil on exact
	// campaigns.
	Weighted *WeightedTallyWire `json:"weighted,omitempty"`
}

// WeightedTallyWire mirrors weightedShardTally for transport.
type WeightedTallyWire struct {
	Draws        stats.WeightedWire   `json:"draws"`
	SDC          stats.WeightedWire   `json:"sdc"`
	DUE          stats.WeightedWire   `json:"due"`
	Masked       stats.WeightedWire   `json:"masked"`
	UpsetsByBand []stats.WeightedWire `json:"upsets_by_band"`
	DUEByBand    []stats.WeightedWire `json:"due_by_band"`
}

// Partial is the result of executing one shard range: the per-shard
// tallies in shard order (Tallies[i] is shard Range.Lo+i).
type Partial struct {
	Range   ShardRange  `json:"range"`
	Tallies []TallyWire `json:"tallies"`
}

func wireOf(tc *shardTally, biased bool) TallyWire {
	w := TallyWire{
		SDC:          tc.sdc,
		DUE:          tc.due,
		Masked:       tc.masked,
		Upsets:       tc.upsets,
		Reprograms:   tc.reprograms,
		Interactions: tc.interactions,
		ByBand:       append([]int64(nil), tc.byBand[:]...),
	}
	if biased {
		ww := &WeightedTallyWire{
			Draws:        tc.w.draws.Wire(),
			SDC:          tc.w.sdc.Wire(),
			DUE:          tc.w.due.Wire(),
			Masked:       tc.w.masked.Wire(),
			UpsetsByBand: make([]stats.WeightedWire, len(tc.w.upsetsByBand)),
			DUEByBand:    make([]stats.WeightedWire, len(tc.w.dueByBand)),
		}
		for b := range tc.w.upsetsByBand {
			ww.UpsetsByBand[b] = tc.w.upsetsByBand[b].Wire()
			ww.DUEByBand[b] = tc.w.dueByBand[b].Wire()
		}
		w.Weighted = ww
	}
	return w
}

func (w *TallyWire) tally(biased bool) (shardTally, error) {
	tc := shardTally{
		sdc:          w.SDC,
		due:          w.DUE,
		masked:       w.Masked,
		upsets:       w.Upsets,
		reprograms:   w.Reprograms,
		interactions: w.Interactions,
	}
	if len(w.ByBand) != physics.NumBands+1 {
		return tc, fmt.Errorf("beam: tally by_band has %d entries, want %d", len(w.ByBand), physics.NumBands+1)
	}
	copy(tc.byBand[:], w.ByBand)
	if biased != (w.Weighted != nil) {
		return tc, fmt.Errorf("beam: tally weighted section present=%v, campaign biased=%v", w.Weighted != nil, biased)
	}
	if w.Weighted != nil {
		if len(w.Weighted.UpsetsByBand) != physics.NumBands+1 || len(w.Weighted.DUEByBand) != physics.NumBands+1 {
			return tc, fmt.Errorf("beam: weighted tally band arrays have %d/%d entries, want %d",
				len(w.Weighted.UpsetsByBand), len(w.Weighted.DUEByBand), physics.NumBands+1)
		}
		tc.w.draws = w.Weighted.Draws.Tally()
		tc.w.sdc = w.Weighted.SDC.Tally()
		tc.w.due = w.Weighted.DUE.Tally()
		tc.w.masked = w.Weighted.Masked.Tally()
		for b := range tc.w.upsetsByBand {
			tc.w.upsetsByBand[b] = w.Weighted.UpsetsByBand[b].Tally()
			tc.w.dueByBand[b] = w.Weighted.DUEByBand[b].Tally()
		}
	}
	return tc, nil
}

// RunRange executes shards [lo, hi) of the campaign's deterministic shard
// plan — the worker side of POST /v1/shards. The shard streams and run
// loop are exactly those of RunContext; only the subset of shards
// executed differs, so a shard's wire tally is identical no matter which
// node produced it.
func RunRange(ctx context.Context, cfg Config, lo, hi int) (*Partial, error) {
	ctx, span := telemetry.StartSpan(ctx, "beam.range")
	span.SetStage("run")
	span.AnnotateInt("range_lo", lo)
	span.AnnotateInt("range_hi", hi)
	defer span.End()
	s, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var events atomic.Int64
	tallies, err := engine.MapRange(ctx, engine.Config{
		Workers: s.cfg.Shards,
		Grain:   s.grain,
		Seed:    s.cfg.Seed,
		Name:    "beam",
	}, s.runs, defaultShardGrain, lo, hi, func(_ context.Context, sh engine.Shard) (shardTally, error) {
		return runShard(s.cfg, sh, s.pl, s.lambda, &events)
	})
	if err != nil {
		return nil, err
	}
	p := &Partial{
		Range:   ShardRange{Lo: lo, Hi: hi},
		Tallies: make([]TallyWire, len(tallies)),
	}
	biased := s.cfg.Bias != nil
	for i := range tallies {
		p.Tallies[i] = wireOf(&tallies[i], biased)
	}
	return p, nil
}

// AssemblePartials reconstructs the campaign Result from shard-range
// partials. The partials must tile [0, Shards) exactly — an overlap (a
// shard delivered twice, e.g. by a timed-out range that later completed
// AND its re-dispatch) or a gap is an error, never a silent double- or
// under-count. The merge is the same shard-order fold RunContext uses, so
// the returned Result is bit-identical to a single-node run of the same
// Config.
func AssemblePartials(ctx context.Context, cfg Config, partials []*Partial) (*Result, error) {
	ctx, campaign := telemetry.StartSpan(ctx, "beam.campaign")
	defer campaign.End()
	s, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.annotate(campaign)
	// Same campaign-proportional calibration accounting as RunContext: the
	// assembling node answered the campaign, wherever the shards ran.
	telemetry.Count("beam.neutrons_sampled", int64(s.cfg.CalSamples))
	nShards := len(engine.Plan(s.runs, s.grain))
	sorted := append([]*Partial(nil), partials...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Range.Lo < sorted[j].Range.Lo })
	biased := s.cfg.Bias != nil
	tallies := make([]shardTally, 0, nShards)
	next := 0
	for _, p := range sorted {
		switch {
		case p == nil:
			return nil, fmt.Errorf("beam: nil partial")
		case p.Range.Lo < next:
			return nil, fmt.Errorf("beam: partial %s overlaps shard %d (double-count)", p.Range, next)
		case p.Range.Lo > next:
			return nil, fmt.Errorf("beam: shard range [%d,%d) missing from partials", next, p.Range.Lo)
		case p.Range.Hi <= p.Range.Lo || p.Range.Hi > nShards:
			return nil, fmt.Errorf("beam: partial %s outside plan of %d shards", p.Range, nShards)
		case len(p.Tallies) != p.Range.Len():
			return nil, fmt.Errorf("beam: partial %s carries %d tallies", p.Range, len(p.Tallies))
		}
		for i := range p.Tallies {
			tc, err := p.Tallies[i].tally(biased)
			if err != nil {
				return nil, fmt.Errorf("beam: shard %d: %w", p.Range.Lo+i, err)
			}
			tallies = append(tallies, tc)
		}
		next = p.Range.Hi
	}
	if next != nShards {
		return nil, fmt.Errorf("beam: shard range [%d,%d) missing from partials", next, nShards)
	}
	return s.assemble(ctx, tallies, 0)
}
