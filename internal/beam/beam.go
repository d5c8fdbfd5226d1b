// Package beam implements the accelerated radiation-test campaigns of the
// paper (§III-C): a device executing a benchmark is aligned with a beamline
// (ChipIR for high-energy neutrons, ROTAX for thermals), errors are counted
// against golden outputs, and cross sections are computed as
// errors/fluence with Poisson 95% confidence intervals.
package beam

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/physics"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/spectrum"
	"neutronsim/internal/stats"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/units"
	"neutronsim/internal/workload"
)

// Config describes one campaign: one device, one benchmark, one beamline.
type Config struct {
	Device       *device.Device
	WorkloadName string
	Beam         spectrum.Spectrum
	// DurationSeconds is the total beam time.
	DurationSeconds float64
	// RunSeconds is the beam time covered by one workload execution. When
	// zero, it is auto-tuned so a run rarely sees more than one fault —
	// the same error-pile-up control a beam operator applies — capped at
	// 1 s.
	RunSeconds float64
	// Derating scales the flux for boards placed off the beam axis when
	// several boards share the ChipIR beam (default 1; §III-C).
	Derating float64
	// Seed makes the campaign reproducible.
	Seed uint64
	// CalSamples sets the Monte Carlo budget for the interaction-rate
	// estimate (default 20000).
	CalSamples int
	// Injector tuning.
	Inject faultinject.Config
	// Shards caps how many campaign shards execute concurrently (default
	// GOMAXPROCS). It never affects results — the shard decomposition and
	// per-shard streams depend only on (Seed, ShardGrain); see
	// internal/engine and DESIGN.md §9.
	Shards int
	// ShardGrain is the number of runs per shard (default 8192). It is
	// part of the deterministic seed schedule: changing it re-partitions
	// the campaign and re-derives every shard's stream.
	ShardGrain int
	// Bias enables importance-sampled (weighted) interaction draws: the
	// campaign samples from a band-biased alias table and every draw
	// carries its likelihood weight into the tallies, so rare-band
	// statistics converge from far fewer neutrons without changing any
	// expectation (DESIGN.md §14). nil is the exact (analog) estimator;
	// the identity &plan.Bias{} routes through the weighted code path but
	// reproduces exact results bit-for-bit. Biased results carry a
	// Weighted section and their cross sections become the weighted,
	// ESS-gated estimates.
	Bias *plan.Bias
}

func (c Config) withDefaults() Config {
	if c.Derating <= 0 {
		c.Derating = 1
	}
	if c.CalSamples <= 0 {
		c.CalSamples = 20000
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Device == nil:
		return errors.New("beam: nil device")
	case c.Beam == nil:
		return errors.New("beam: nil beam spectrum")
	case c.WorkloadName == "":
		return errors.New("beam: missing workload name")
	case c.DurationSeconds <= 0:
		return errors.New("beam: non-positive duration")
	case c.Derating > 1:
		return errors.New("beam: derating cannot exceed 1")
	}
	if c.Bias != nil {
		if err := c.Bias.Validate(); err != nil {
			return err
		}
	}
	return c.Device.Validate()
}

// Result is the outcome of one campaign.
type Result struct {
	Device   string
	Workload string
	Beam     string

	Runs    int
	Fluence units.Fluence // derated total fluence

	SDC    int64
	DUE    int64
	Masked int64
	// Upsets counts raw device faults before workload masking.
	Upsets int64
	// FaultsByBand attributes upsets to the neutron band that caused them.
	FaultsByBand map[physics.EnergyBand]int64
	// Reprograms counts FPGA bitstream reloads after observed errors.
	Reprograms int64

	// Cross sections (cm² per device) with Poisson 95% CIs. For biased
	// campaigns these are the weighted, ESS-gated estimates — unbiased
	// drop-ins for the exact ones — because the raw SDC/DUE counts of a
	// biased campaign are counts under the biased distribution, not
	// physics.
	SDCCrossSection stats.RateEstimate
	DUECrossSection stats.RateEstimate

	// Weighted carries the importance-sampling tallies of a biased
	// campaign (Config.Bias non-nil). It is nil for exact campaigns, so
	// exact results are unchanged structurally and byte-for-byte.
	Weighted *WeightedResult `json:",omitempty"`
}

// WeightedResult is the likelihood-weighted side of a biased campaign:
// every tally pairs the weighted sum (the unbiased estimate of the exact
// count) with the sum of squared weights, from which the effective sample
// size — the honest amount of statistics behind any CI claim — follows.
type WeightedResult struct {
	// Bias echoes the campaign's bias knob.
	Bias plan.Bias `json:"bias"`
	// Draws tallies every interaction draw. Its weighted sum estimates
	// the number of draws an exact campaign would produce — equal to its
	// raw N in expectation (weights conservation) — and its ESS is the
	// effective neutron budget behind the whole campaign.
	Draws stats.Weighted `json:"draws"`
	// Run outcomes under the run-level likelihood weight (the product of
	// the weights of every draw that influenced the run, including draws
	// carried across runs by persistent FPGA faults).
	SDC    stats.Weighted `json:"sdc"`
	DUE    stats.Weighted `json:"due"`
	Masked stats.Weighted `json:"masked"`
	// UpsetsByBand tallies raw device upsets per band under the per-draw
	// weight; DUEByBand attributes weighted DUEs to the band of the run's
	// first fault — the per-band rare-channel tallies the variance
	// reduction is aimed at (EXPERIMENTS.md E3).
	UpsetsByBand map[physics.EnergyBand]stats.Weighted `json:"upsets_by_band"`
	DUEByBand    map[physics.EnergyBand]stats.Weighted `json:"due_by_band"`
}

// Run executes the campaign and reports counts and cross sections.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// defaultShardGrain is the number of beam runs per engine shard. Large
// enough that a shard amortizes its golden-workload replay setup, small
// enough that auto-tuned campaigns (up to 2e6 runs) decompose into
// hundreds of shards.
const defaultShardGrain = 8192

// shardTally accumulates one shard's private counts. Everything here is
// shard-local; the campaign Result is assembled only after every shard has
// finished, by summing tallies in shard order. byBand is a fixed array
// indexed by band value (bands are 1..physics.NumBands) so the per-upset
// increment is a register op, not a map insert; the merge converts it to
// the Result's exported map.
type shardTally struct {
	sdc, due, masked   int64
	upsets, reprograms int64
	interactions       int64
	byBand             [physics.NumBands + 1]int64
	// w holds the weighted tallies of a biased campaign; it stays zero on
	// the exact path. Fixed-size value state, so the weighted run loop
	// stays allocation-free.
	w weightedShardTally
}

// weightedShardTally is one shard's private weighted accumulators,
// mirroring the integer tallies above with likelihood-weighted sums.
type weightedShardTally struct {
	draws            stats.Weighted
	sdc, due, masked stats.Weighted
	upsetsByBand     [physics.NumBands + 1]stats.Weighted
	dueByBand        [physics.NumBands + 1]stats.Weighted
}

// campaignSetup is everything a campaign derives deterministically before
// its run loop: the compiled plan and the auto-tuned decomposition. It is
// a pure function of Config — the coordinator computing it to partition a
// campaign, a worker computing it to execute a shard range, and a
// single-node run all derive identical values (DESIGN.md §15).
type campaignSetup struct {
	cfg        Config // defaulted and validated
	pl         *plan.CampaignPlan
	flux       float64
	runSeconds float64
	lambda     float64
	runs       int
	grain      int
}

// prepare validates the config, compiles (or cache-hits) the campaign
// plan, and derives the run decomposition.
func prepare(ctx context.Context, cfg Config) (*campaignSetup, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Validate the workload name (and capture the golden output) before
	// committing to the campaign.
	if _, err := workload.New(cfg.WorkloadName); err != nil {
		return nil, err
	}
	// Campaign setup compiles through the shared plan cache: the first
	// campaign for a (device physics, spectrum, CalSamples, seed) key pays
	// the calibration, every later one reuses the compiled plan
	// bit-identically (DESIGN.md §12).
	calCtx, cal := telemetry.StartSpan(ctx, "beam.calibrate")
	cal.SetStage("compile")
	pl := plan.Shared.For(calCtx, cfg.Device, cfg.Beam, cfg.CalSamples, cfg.Seed, cfg.Bias)
	cal.End()

	flux := float64(cfg.Beam.TotalFlux()) * cfg.Derating
	area := cfg.Device.DieAreaCm2
	ratePerSecond := flux * area * pl.MeanP()
	runSeconds := cfg.RunSeconds
	if runSeconds <= 0 {
		// Auto-tune so that a run rarely collects more than one fault
		// (λ ≈ 0.05), bounded to keep run counts tractable.
		runSeconds = 1
		if ratePerSecond > 0.05 {
			runSeconds = 0.05 / ratePerSecond
		}
		if got := cfg.DurationSeconds / runSeconds; got > 2e6 {
			runSeconds = cfg.DurationSeconds / 2e6
		}
	}
	runs := int(cfg.DurationSeconds / runSeconds)
	if runs < 1 {
		runs = 1
	}
	grain := cfg.ShardGrain
	if grain <= 0 {
		grain = defaultShardGrain
	}
	return &campaignSetup{
		cfg:        cfg,
		pl:         pl,
		flux:       flux,
		runSeconds: runSeconds,
		lambda:     ratePerSecond * runSeconds,
		runs:       runs,
		grain:      grain,
	}, nil
}

// annotate labels the campaign span with what the campaign runs, so
// campaigns that run concurrently stay identifiable in a trace.
func (s *campaignSetup) annotate(span *telemetry.Span) {
	span.Annotate("device", s.cfg.Device.Name)
	span.Annotate("workload", s.cfg.WorkloadName)
	span.Annotate("beam", s.cfg.Beam.Name())
}

// RunContext is Run with a caller context, so the campaign's telemetry
// spans nest under any span the caller has open (e.g. core.assess).
//
// The runs loop executes on the sharded engine: each shard of ShardGrain
// runs draws from its own stream (engine.StreamForShard(Seed, shard)) and
// keeps its own injector and persistent-FPGA-corruption state, so the
// result is identical for any Shards worker count — including 1, the
// serial executor. Persistent configuration faults are carried run-to-run
// within a shard and cleared at shard boundaries, operationally a periodic
// blind bitstream reload every ShardGrain runs (DESIGN.md §9).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	ctx, campaign := telemetry.StartSpan(ctx, "beam.campaign")
	defer campaign.End()
	s, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.annotate(campaign)
	// beam.neutrons_sampled counts the campaign's calibration budget; it is
	// posted whether the plan was compiled here or served from the cache,
	// so the counter stays proportional to campaigns run rather than to
	// cache misses.
	telemetry.Count("beam.neutrons_sampled", int64(s.cfg.CalSamples))

	_, runSpan := telemetry.StartSpan(ctx, "beam.runs")
	runStart := time.Now()
	// events is the only state shared across shards: an atomic SDC+DUE
	// count feeding progress lines (Result fields are written only after
	// the merge, so concurrent shards never touch them).
	var events atomic.Int64
	tallies, err := engine.Map(ctx, engine.Config{
		Workers: s.cfg.Shards,
		Grain:   s.grain,
		Seed:    s.cfg.Seed,
		Name:    "beam",
		OnShardDone: func(_ engine.Shard, doneItems, totalItems int) {
			telemetry.ReportProgressContext(ctx, telemetry.ProgressUpdate{
				Component: "beam",
				Device:    s.cfg.Device.Name,
				Beam:      s.cfg.Beam.Name(),
				Done:      float64(doneItems),
				Total:     float64(totalItems),
				Fluence:   s.flux * s.runSeconds * float64(doneItems),
				Events:    events.Load(),
				Elapsed:   time.Since(runStart),
			})
		},
	}, s.runs, defaultShardGrain, func(_ context.Context, sh engine.Shard) (shardTally, error) {
		return runShard(s.cfg, sh, s.pl, s.lambda, &events)
	})
	runSpan.End()
	if err != nil {
		return nil, err
	}
	return s.assemble(ctx, tallies, time.Since(runStart))
}

// assemble folds per-shard tallies — in shard order — into the campaign
// Result, posts the campaign's telemetry totals, and computes the cross
// sections. It is the single merge implementation shared by the local
// path (RunContext) and the distributed path (AssemblePartials), which is
// what makes "distributed results are bit-identical to single-node runs"
// a structural property rather than a re-implementation promise. elapsed
// is the wall time of the run phase; non-positive skips the throughput
// gauge (a coordinator assembling remote tallies ran nothing itself).
func (s *campaignSetup) assemble(ctx context.Context, tallies []shardTally, elapsed time.Duration) (*Result, error) {
	_, mergeSpan := telemetry.StartSpan(ctx, "beam.merge")
	mergeSpan.SetStage("merge")
	defer mergeSpan.End()
	res := &Result{
		Device:       s.cfg.Device.Name,
		Workload:     s.cfg.WorkloadName,
		Beam:         s.cfg.Beam.Name(),
		Runs:         s.runs,
		Fluence:      units.Fluence(s.flux * s.runSeconds * float64(s.runs)),
		FaultsByBand: map[physics.EnergyBand]int64{},
	}
	var totalInteractions int64
	for _, tc := range tallies {
		res.SDC += tc.sdc
		res.DUE += tc.due
		res.Masked += tc.masked
		res.Upsets += tc.upsets
		res.Reprograms += tc.reprograms
		totalInteractions += tc.interactions
		for b, n := range tc.byBand {
			if n != 0 {
				res.FaultsByBand[physics.EnergyBand(b)] += n
			}
		}
	}
	// Post campaign totals once, atomically, after the merge — per-run
	// counter traffic from inside shards would be racy bookkeeping at
	// best and a contention hot spot at worst.
	// beam.neutrons_sampled counts calibration draws only (posted by the
	// campaign entry points); conditioned interaction draws are
	// beam.interactions. Adding the interactions here again would
	// double-count them across two counters.
	reg := telemetry.Default
	reg.Counter("beam.interactions").Add(totalInteractions)
	reg.Counter("beam.sdc_events").Add(res.SDC)
	reg.Counter("beam.due_events").Add(res.DUE)
	reg.Counter("beam.runs").Add(int64(s.runs))
	reg.Counter("beam.upsets").Add(res.Upsets)
	reg.Counter("beam.masked").Add(res.Masked)
	if secs := elapsed.Seconds(); secs > 0 {
		reg.Gauge("beam.samples_per_sec").Set(
			(float64(s.cfg.CalSamples) + float64(totalInteractions)) / secs)
	}
	var err error
	if s.cfg.Bias != nil {
		res.Weighted = mergeWeighted(*s.cfg.Bias, tallies)
		// beam.neutrons_weighted counts the biased campaign's weighted
		// interaction draws. Like every Result field it is a pure function
		// of the shard decomposition, so it is shard-count-invariant.
		reg.Counter("beam.neutrons_weighted").Add(res.Weighted.Draws.N)
		// Biased cross sections are the weighted estimates: the raw counts
		// are biased-sample counts and would mis-state the physics.
		if res.SDCCrossSection, err = stats.EstimateWeightedRate(res.Weighted.SDC, float64(res.Fluence)); err != nil {
			return nil, err
		}
		if res.DUECrossSection, err = stats.EstimateWeightedRate(res.Weighted.DUE, float64(res.Fluence)); err != nil {
			return nil, err
		}
		return res, nil
	}
	if res.SDCCrossSection, err = stats.EstimateRate(res.SDC, float64(res.Fluence)); err != nil {
		return nil, err
	}
	if res.DUECrossSection, err = stats.EstimateRate(res.DUE, float64(res.Fluence)); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeWeighted folds the shards' weighted tallies — in shard order, like
// the integer merge above, so weighted results inherit the engine's
// bit-identical-across-worker-counts invariant — and finalizes every
// tally (Kahan compensation folded in) before publishing.
func mergeWeighted(bias plan.Bias, tallies []shardTally) *WeightedResult {
	wr := &WeightedResult{
		Bias:         bias,
		UpsetsByBand: map[physics.EnergyBand]stats.Weighted{},
		DUEByBand:    map[physics.EnergyBand]stats.Weighted{},
	}
	var upsetsByBand, dueByBand [physics.NumBands + 1]stats.Weighted
	for i := range tallies {
		w := &tallies[i].w
		wr.Draws.Merge(w.draws)
		wr.SDC.Merge(w.sdc)
		wr.DUE.Merge(w.due)
		wr.Masked.Merge(w.masked)
		for b := range w.upsetsByBand {
			upsetsByBand[b].Merge(w.upsetsByBand[b])
			dueByBand[b].Merge(w.dueByBand[b])
		}
	}
	wr.Draws.Finalize()
	wr.SDC.Finalize()
	wr.DUE.Finalize()
	wr.Masked.Finalize()
	for b := 1; b < len(upsetsByBand); b++ {
		if t := upsetsByBand[b]; t.N != 0 {
			t.Finalize()
			wr.UpsetsByBand[physics.EnergyBand(b)] = t
		}
		if t := dueByBand[b]; t.N != 0 {
			t.Finalize()
			wr.DUEByBand[physics.EnergyBand(b)] = t
		}
	}
	return wr
}

// shardRunner executes one shard's slice of beam runs. Each shard owns a
// fresh workload instance and injector (injectors replay mutable workload
// state and are not safe to share), plus the shard-local list of
// persistent FPGA configuration faults (§V): corruption survives from run
// to run until an observed error triggers a bitstream reload, and is
// dropped at the shard boundary. The fault and persistent buffers are
// owned by the runner and reused across all of the shard's runs, so the
// steady-state run loop performs no heap allocations (DESIGN.md §11).
type shardRunner struct {
	cfg    Config
	plan   *plan.CampaignPlan
	lambda float64
	// expNegLambda caches exp(-lambda) for the Knuth Poisson draw, which
	// otherwise recomputes it on every run.
	expNegLambda float64
	// sample and wsample are the plan's hoisted alias-table views: the
	// batched classify pass reads the fused 32-byte slots through a
	// runner-local slice header instead of chasing the plan pointer per
	// draw.
	sample     plan.Sampler
	wsample    plan.WeightedSampler
	inj        *faultinject.Injector
	steps      int
	s          *rng.Stream
	tc         shardTally
	faults     []faultinject.Timed
	persistent []faultinject.Timed
	// wCarried is the weighted run loop's carried likelihood weight: the
	// product of the weights of every draw since the shard's last
	// persistent-state regeneration (empty persistent set). A run's
	// outcome depends on those draws through the carried FPGA
	// configuration faults, so its outcome weight is wCarried times the
	// current run's draw-weight product. Regeneration points (persistent
	// empty) restart the chain from a deterministic state, which is what
	// keeps the segmented product unbiased.
	wCarried float64
}

func newShardRunner(cfg Config, sh engine.Shard, pl *plan.CampaignPlan, lambda float64) (*shardRunner, error) {
	w, err := workload.New(cfg.WorkloadName)
	if err != nil {
		return nil, err
	}
	inj, err := faultinject.NewInjector(w, cfg.Seed, cfg.Inject)
	if err != nil {
		return nil, err
	}
	// The shard stream runs the whole campaign in buffered read-ahead
	// mode: uniforms are pre-generated a batch at a time and served in
	// order, so every data-dependent consumer below (Poisson loop, alias
	// draw, device physics, fault injector) sees the exact sequence an
	// unbuffered stream would produce (DESIGN.md §16). The buffer is
	// allocated here, once per shard, keeping the run loop itself at zero
	// allocations.
	sh.Stream.ReadAhead(runLoopReadAhead)
	return &shardRunner{
		cfg:          cfg,
		plan:         pl,
		lambda:       lambda,
		expNegLambda: math.Exp(-lambda),
		sample:       pl.Sampler(),
		wsample:      pl.WeightedSampler(),
		inj:          inj,
		steps:        w.Steps(),
		s:            sh.Stream,
		wCarried:     1,
	}, nil
}

// Batched run-loop parameters (DESIGN.md §16).
const (
	// runLoopReadAhead is the shard stream's uniform read-ahead buffer in
	// draws: the batch of uniforms pre-generated in one tight pass and
	// then consumed — in the exact unbuffered order — by the Poisson,
	// alias, physics and injector draws of the following runs. 8 KiB of
	// buffer, refilled roughly once per few hundred auto-tuned runs.
	runLoopReadAhead = 1024
	// runBatchSize is the number of runs per classify batch: integer
	// tallies accumulate in batch-local variables and flush to the shard
	// tally — and the cross-shard atomic events counter — once per batch,
	// so the hot loop stops rattling a shared cache line on every event.
	// Only associative integer counts are batched; weighted (Kahan) tally
	// adds keep their exact per-run order.
	runBatchSize = 512
)

// runBlock executes n exact runs as one batch. Each run is a Poisson
// number of conditioned interaction draws, device physics per
// interaction, then workload replay under the collected faults. The
// classify pass separates the no-interaction common path (one
// cached-exponential Poisson draw and a local masked increment) from
// the rare materialization path, and the batch's integer deltas flush to
// the shard tally once at the end. Every
// stream draw happens in exactly the per-run order, so the batch is
// bit-identical to the scalar reference loop in batch_test.go, and it
// must stay free of per-run allocations (TestRunLoopZeroAllocs).
func (r *shardRunner) runBlock(n int) {
	lambda, expNeg := r.lambda, r.expNegLambda
	s := r.s
	var masked int64
	for i := 0; i < n; i++ {
		nInt := s.PoissonExp(lambda, expNeg)
		if nInt == 0 && len(r.persistent) == 0 {
			masked++
			continue
		}
		r.materialize(nInt)
	}
	r.tc.masked += masked
}

// materialize is the rare path of an exact run: nInt > 0 interactions to
// draw and classify, or carried persistent faults to replay (or both).
// Deliberately outlined from the batch loop — at auto-tuned λ ≈ 0.05 over
// 95% of runs never come here.
func (r *shardRunner) materialize(nInt int64) {
	s := r.s
	r.tc.interactions += nInt
	faults := append(r.faults[:0], r.persistent...)
	for k := int64(0); k < nInt; k++ {
		e := r.sample.Sample(s)
		f, upset := r.cfg.Device.InteractionUpset(e, s)
		if !upset {
			continue
		}
		r.tc.upsets++
		r.tc.byBand[f.Band]++
		tf := faultinject.Timed{Step: s.Intn(r.steps), Fault: f}
		faults = append(faults, tf)
		if f.Target == device.TargetConfig {
			tf.Step = 0 // a corrupted bitstream affects the whole run
			r.persistent = append(r.persistent, tf)
		}
	}
	r.faults = faults[:0]
	if len(faults) == 0 {
		r.tc.masked++
		return
	}
	switch r.inj.Run(faults, s).Outcome {
	case faultinject.OutcomeSDC:
		r.tc.sdc++
		if len(r.persistent) > 0 {
			r.persistent = r.persistent[:0] // reprogram the FPGA
			r.tc.reprograms++
		}
	case faultinject.OutcomeDUE:
		r.tc.due++
		if len(r.persistent) > 0 {
			r.persistent = r.persistent[:0]
			r.tc.reprograms++
		}
	default:
		r.tc.masked++
	}
}

// runBlockWeighted is runBlock for biased campaigns: every interaction
// comes from the biased table with its likelihood weight, and every
// tally is fed the appropriate weight alongside the integer count.
// Per-draw tallies (draws, upsets by band) use the draw's own weight;
// run outcomes (SDC/DUE/Masked) use the product of the weights of every
// draw that influenced the run. A run with no draws and no carried
// faults is masked with outcome weight wCarried·1.0 and resets the
// carried product exactly like advanceCarried would. Only the
// associative integer counts are batch-accumulated;
// the weighted tallies are Kahan-compensated sums whose value depends on
// add order, so they are fed per run in exactly the scalar order —
// bit-identity over speed for anything non-associative.
func (r *shardRunner) runBlockWeighted(n int) {
	lambda, expNeg := r.lambda, r.expNegLambda
	s := r.s
	var masked int64
	for i := 0; i < n; i++ {
		nInt := s.PoissonExp(lambda, expNeg)
		if nInt == 0 && len(r.persistent) == 0 {
			masked++
			r.tc.w.masked.Add(r.wCarried)
			r.wCarried = 1
			continue
		}
		r.materializeWeighted(nInt)
	}
	r.tc.masked += masked
}

// materializeWeighted is the rare path of a weighted run.
func (r *shardRunner) materializeWeighted(nInt int64) {
	s := r.s
	r.tc.interactions += nInt
	wRun := 1.0
	faults := append(r.faults[:0], r.persistent...)
	for k := int64(0); k < nInt; k++ {
		e, w := r.wsample.Sample(s)
		r.tc.w.draws.Add(w)
		wRun *= w
		f, upset := r.cfg.Device.InteractionUpset(e, s)
		if !upset {
			continue
		}
		r.tc.upsets++
		r.tc.byBand[f.Band]++
		r.tc.w.upsetsByBand[f.Band].Add(w)
		tf := faultinject.Timed{Step: s.Intn(r.steps), Fault: f}
		faults = append(faults, tf)
		if f.Target == device.TargetConfig {
			tf.Step = 0 // a corrupted bitstream affects the whole run
			r.persistent = append(r.persistent, tf)
		}
	}
	// This run's outcome is a function of its own draws and of the draws
	// whose persistent faults were carried in, so its likelihood weight
	// is the carried product times this run's product.
	wOut := r.wCarried * wRun
	r.faults = faults[:0]
	if len(faults) == 0 {
		r.tc.masked++
		r.tc.w.masked.Add(wOut)
		r.advanceCarried(wRun)
		return
	}
	outcomeBand := faults[0].Fault.Band
	switch r.inj.Run(faults, s).Outcome {
	case faultinject.OutcomeSDC:
		r.tc.sdc++
		r.tc.w.sdc.Add(wOut)
		if len(r.persistent) > 0 {
			r.persistent = r.persistent[:0] // reprogram the FPGA
			r.tc.reprograms++
		}
	case faultinject.OutcomeDUE:
		r.tc.due++
		r.tc.w.due.Add(wOut)
		r.tc.w.dueByBand[outcomeBand].Add(wOut)
		if len(r.persistent) > 0 {
			r.persistent = r.persistent[:0]
			r.tc.reprograms++
		}
	default:
		r.tc.masked++
		r.tc.w.masked.Add(wOut)
	}
	r.advanceCarried(wRun)
}

// advanceCarried rolls the carried likelihood weight forward after a run:
// an empty persistent set is a regeneration point (the chain restarts
// from a deterministic state, so history stops mattering and the carried
// weight resets to 1); otherwise this run's draws keep influencing future
// runs through the surviving configuration faults and their weight
// product carries forward. Non-FPGA devices never populate persistent, so
// their carried weight is always 1.
func (r *shardRunner) advanceCarried(wRun float64) {
	if len(r.persistent) == 0 {
		r.wCarried = 1
		return
	}
	r.wCarried *= wRun
}

func runShard(cfg Config, sh engine.Shard, pl *plan.CampaignPlan, lambda float64, events *atomic.Int64) (shardTally, error) {
	r, err := newShardRunner(cfg, sh, pl, lambda)
	if err != nil {
		return shardTally{}, err
	}
	// The shard executes in batches of runBatchSize runs: uniforms are
	// pre-filled by the stream's read-ahead buffer, integer tallies
	// accumulate batch-locally, and the shared events counter sees one
	// atomic add per batch instead of one per event.
	block := r.runBlock
	if pl.IsBiased() {
		block = r.runBlockWeighted
	}
	for n := sh.Count; n > 0; {
		b := min(n, runBatchSize)
		before := r.tc.sdc + r.tc.due
		block(b)
		if d := r.tc.sdc + r.tc.due - before; d != 0 {
			events.Add(d)
		}
		n -= b
	}
	return r.tc, nil
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s @ %s: runs=%d fluence=%s SDC=%d (σ=%.3g cm²) DUE=%d (σ=%.3g cm²)",
		r.Device, r.Workload, r.Beam, r.Runs, r.Fluence,
		r.SDC, r.SDCCrossSection.Rate, r.DUE, r.DUECrossSection.Rate)
}

// Pair holds the matched ChipIR/ROTAX measurements for one device and
// workload, mirroring the paper's same-device-same-setup methodology.
type Pair struct {
	Fast    *Result
	Thermal *Result
}

// SDCRatio returns the fast:thermal SDC cross-section ratio with an
// approximate 95% interval.
func (p Pair) SDCRatio() (ratio, lo, hi float64) {
	return stats.RatioCI(p.Fast.SDCCrossSection, p.Thermal.SDCCrossSection)
}

// DUERatio returns the fast:thermal DUE cross-section ratio with an
// approximate 95% interval.
func (p Pair) DUERatio() (ratio, lo, hi float64) {
	return stats.RatioCI(p.Fast.DUECrossSection, p.Thermal.DUECrossSection)
}

// Merge combines campaign results from multiple workloads on one device
// into device-average counts (the averages of Fig. cs_ratio).
func Merge(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, errors.New("beam: nothing to merge")
	}
	out := &Result{
		Device:       results[0].Device,
		Workload:     "average",
		Beam:         results[0].Beam,
		FaultsByBand: map[physics.EnergyBand]int64{},
	}
	weighted := results[0].Weighted != nil
	if weighted {
		out.Weighted = &WeightedResult{
			Bias:         results[0].Weighted.Bias,
			UpsetsByBand: map[physics.EnergyBand]stats.Weighted{},
			DUEByBand:    map[physics.EnergyBand]stats.Weighted{},
		}
	}
	for _, r := range results {
		if r.Device != out.Device || r.Beam != out.Beam {
			return nil, errors.New("beam: merge requires same device and beam")
		}
		if (r.Weighted != nil) != weighted {
			return nil, errors.New("beam: cannot merge biased and exact campaigns")
		}
		if weighted && r.Weighted.Bias != out.Weighted.Bias {
			return nil, errors.New("beam: merge requires identical bias knobs")
		}
		out.Runs += r.Runs
		out.Fluence += r.Fluence
		out.SDC += r.SDC
		out.DUE += r.DUE
		out.Masked += r.Masked
		out.Upsets += r.Upsets
		out.Reprograms += r.Reprograms
		for b, n := range r.FaultsByBand {
			out.FaultsByBand[b] += n
		}
		if weighted {
			out.Weighted.Draws.Merge(r.Weighted.Draws)
			out.Weighted.SDC.Merge(r.Weighted.SDC)
			out.Weighted.DUE.Merge(r.Weighted.DUE)
			out.Weighted.Masked.Merge(r.Weighted.Masked)
			for b, t := range r.Weighted.UpsetsByBand {
				m := out.Weighted.UpsetsByBand[b]
				m.Merge(t)
				out.Weighted.UpsetsByBand[b] = m
			}
			for b, t := range r.Weighted.DUEByBand {
				m := out.Weighted.DUEByBand[b]
				m.Merge(t)
				out.Weighted.DUEByBand[b] = m
			}
		}
	}
	var err error
	if weighted {
		// The inputs were finalized by their campaigns, so the merged
		// sums carry no compensation residue worth keeping; finalize for
		// the same round-trip-stable representation.
		out.Weighted.Draws.Finalize()
		out.Weighted.SDC.Finalize()
		out.Weighted.DUE.Finalize()
		out.Weighted.Masked.Finalize()
		for b, t := range out.Weighted.UpsetsByBand {
			t.Finalize()
			out.Weighted.UpsetsByBand[b] = t
		}
		for b, t := range out.Weighted.DUEByBand {
			t.Finalize()
			out.Weighted.DUEByBand[b] = t
		}
		if out.SDCCrossSection, err = stats.EstimateWeightedRate(out.Weighted.SDC, float64(out.Fluence)); err != nil {
			return nil, err
		}
		if out.DUECrossSection, err = stats.EstimateWeightedRate(out.Weighted.DUE, float64(out.Fluence)); err != nil {
			return nil, err
		}
		return out, nil
	}
	if out.SDCCrossSection, err = stats.EstimateRate(out.SDC, float64(out.Fluence)); err != nil {
		return nil, err
	}
	if out.DUECrossSection, err = stats.EstimateRate(out.DUE, float64(out.Fluence)); err != nil {
		return nil, err
	}
	return out, nil
}
