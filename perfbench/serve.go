package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"neutronsim/internal/server"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// serve-explore runs against an in-process neutrond on loopback with
// its default sizing (2 job workers, 64-deep queue, 256-entry result
// cache) and the set-up's surrogate model. Each run builds a fresh server
// with a fresh telemetry registry, so every run starts from an empty
// result cache, and sends half a second of traffic at the light rate
// before anything is timed. The workload never repeats a key, so the
// cache's contents (which the timed phases keep changing) never change
// an answer or a lookup's outcome: every phase starts from the same
// effective state.

// Open-loop phase lengths as shares of --seconds. The ladder's share is
// split evenly across its rungs.
const (
	lightShare  = 0.1
	heavyShare  = 0.1
	ladderShare = 0.3
	warmup      = 500 * time.Millisecond
)

// The timed phases start with closed-loop batches of batchSize requests,
// one per batchEvery of --seconds: at about 550 answers a second they
// take about 60% of the run. Their number depends on --seconds alone, so
// a seed always gives the same requests and the same digest.
const (
	batchSize  = 800
	batchEvery = 2500 * time.Millisecond
)

// exactSampleEvery: every exact answer whose request index is a multiple
// of it is re-run with server.Execute and compared byte for byte.
const exactSampleEvery = 8

// serveRun holds the serve workload's live state.
type serveRun struct {
	model *surrogate.Model
	c     *client
	gen   generator
	seed  uint64
	// warm maps each cache key whose verified answer the client holds
	// to that answer (the hot probe's working set).
	warm map[string][]byte
}

func runServe(ctx context.Context, opts options) (*report, error) {
	rep := newReport()
	var model *surrogate.Model
	var err error
	if opts.trace {
		model, err = trainSurrogate()
	} else {
		model, err = setUp(rep)
	}
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Surrogate: model, Registry: telemetry.NewRegistry()})
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	// The run's result is settled by the time Drain runs; its error only
	// reports jobs still in flight, which the phases already counted.
	defer func() { _ = srv.Drain() }()
	sr := &serveRun{
		model: model,
		c:     newClient("http://"+srv.Addr(), runtime.NumCPU()),
		gen:   newExploreGen(opts.seed),
		seed:  opts.seed,
		warm:  map[string][]byte{},
	}
	defer sr.c.close()
	reqs := take(sr.gen, int(opts.load.light*warmup.Seconds()))
	sr.verify(ctx, rep, reqs, sr.c.openLoop(ctx, reqs, opts.load.light, warmup), true)
	secs := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		return rep, sr.traced(ctx, rep, &opts.load, secs)
	}
	return rep, sr.timed(ctx, rep, &opts.load, secs)
}

// executeDirect runs a request through Normalize and server.Execute in
// process and returns the body the server would cache for it.
func executeDirect(ctx context.Context, r request) ([]byte, string, error) {
	n, err := r.raw.Normalize()
	if err != nil {
		return nil, "", fmt.Errorf("normalize generated request: %w", err)
	}
	env, err := server.Execute(ctx, n, 0)
	if err != nil {
		return nil, "", fmt.Errorf("execute %s directly: %w", n.Kind, err)
	}
	body, err := json.Marshal(env)
	return body, n.CacheKey(), err
}

// verify checks every answer of a phase and, when count is set, adds
// its requests to the attempted and failed totals. It returns the
// answers' bodies in request order for the digest.
func (sr *serveRun) verify(ctx context.Context, rep *report, reqs []request, ph phase, count bool) [][]byte {
	var bodies [][]byte
	if count {
		rep.attempted += int64(len(ph.outcomes))
	}
	for i, o := range ph.outcomes {
		if o.err != nil {
			if count {
				rep.failed++
			}
			continue
		}
		bodies = append(bodies, o.result)
		switch o.tier {
		case tierSurrogate:
			sr.checkSurrogate(rep, reqs[i], o.result)
		case tierCache:
			n, err := reqs[i].raw.Normalize()
			if err != nil {
				rep.fail("request %d: %v", i, err)
				continue
			}
			want, ok := sr.warm[n.CacheKey()]
			if !ok {
				var err error
				if want, _, err = executeDirect(ctx, reqs[i]); err != nil {
					rep.fail("request %d: %v", i, err)
					continue
				}
			}
			if !bytes.Equal(o.result, want) {
				rep.fail("request %d: cache hit body differs from the verified answer", i)
			}
		case tierExact:
			var env server.ResultEnvelope
			if err := json.Unmarshal(o.result, &env); err != nil || env.Kind != reqs[i].raw.Kind {
				rep.fail("request %d: exact answer is not a %s result", i, reqs[i].raw.Kind)
				continue
			}
			if i%exactSampleEvery == 0 {
				want, _, err := executeDirect(ctx, reqs[i])
				if err != nil {
					rep.fail("request %d: %v", i, err)
				} else if !bytes.Equal(o.result, want) {
					rep.fail("request %d: exact answer differs from server.Execute", i)
				}
			}
		}
	}
	return bodies
}

// checkSurrogate checks a surrogate-tier answer: marked approximate,
// carrying the loaded model's hash and a certified bound within the
// request's tolerance, and equal to the model's own prediction.
func (sr *serveRun) checkSurrogate(rep *report, r request, body []byte) {
	var env server.ResultEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Xsection == nil {
		rep.fail("surrogate answer is not an xsection result: %s", body)
		return
	}
	x, p := env.Xsection, r.raw.Xsection
	switch {
	case !x.Approx:
		rep.fail("surrogate answer is not marked approx")
	case x.ModelHash != sr.model.Hash:
		rep.fail("surrogate answer carries model hash %q, want %q", x.ModelHash, sr.model.Hash)
	case !(x.RelErrBound > 0) || x.RelErrBound > r.raw.Tolerance:
		rep.fail("surrogate rel_err_bound %v exceeds the request tolerance %v", x.RelErrBound, r.raw.Tolerance)
	default:
		if want, ok := predict(sr.model, p); !ok || x.SigmaCm2 != want {
			rep.fail("surrogate sigma %v differs from the model's prediction %v", x.SigmaCm2, want)
		}
	}
}

// timed runs the end-to-end phases: closed-loop batches, the light and
// heavy fixed rates, and the max_rps ladder.
//
// The batches give batch_s, cpu_ms and alloc_mb. They keep both CPUs
// busy, so the speed probe shares the CPUs with the work it scales and
// every figure pools the whole of the batches. The light and heavy
// phases' latencies go to the envelope: they leave the CPUs mostly idle,
// and on a shared host the p50 of a request that runs for a few
// milliseconds follows which speed the host gave the CPU in those
// milliseconds, which a probe running at other moments cannot tell.
func (sr *serveRun) timed(ctx context.Context, rep *report, lp *loadPlan, secs time.Duration) error {
	var digest [][]byte
	var speed speedTally
	var cpu, wall time.Duration
	var alloc float64
	answered := 0
	rounds := max(1, int(secs/batchEvery))
	for i := 0; i < rounds; i++ {
		reqs := take(sr.gen, batchSize)
		mem := memStats()
		ph := sr.c.closedLoop(ctx, reqs)
		alloc += allocMB(mem)
		digest = append(digest, sr.verify(ctx, rep, reqs, ph, true)...)
		speed.add(ph.speed)
		cpu += ph.cpu
		wall += ph.wall
		answered += len(ph.latenciesMS(""))
	}
	if answered == 0 {
		return fmt.Errorf("the closed-loop batches answered no request")
	}
	scale := speed.scale()
	batch := wall.Seconds() / float64(rounds)
	perRequest := ms(cpu) / float64(answered)
	rep.set("batch_s", "s", batch*scale)
	rep.set("cpu_ms", "ms", perRequest*scale)
	rep.set("alloc_mb", "MB", alloc/float64(rounds))
	rep.notes["measured_batch_s"] = batch
	rep.notes["measured_cpu_ms"] = perRequest
	rep.notes["speed_scale"] = scale
	rep.digest = digestOf(digest)

	for _, load := range []struct {
		name  string
		rate  float64
		share float64
	}{{"light", lp.light, lightShare}, {"heavy", lp.heavy, heavyShare}} {
		dur := time.Duration(float64(secs) * load.share)
		reqs := take(sr.gen, int(load.rate*dur.Seconds()))
		ph := sr.c.openLoop(ctx, reqs, load.rate, dur)
		sr.verify(ctx, rep, reqs, ph, true)
		lat := ph.latenciesMS("")
		rep.notes["p50_ms."+load.name] = quantile(lat, 0.5)
		rep.notes["p90_ms."+load.name] = quantile(lat, 0.9)
		rep.notes["samples."+load.name] = len(lat)
		rep.notes["late_p99_ms."+load.name] = quantile(ph.lateMS(), 0.99)
	}

	maxRPS, steps := sr.ladder(ctx, rep, lp, secs)
	rep.set("max_rps", "1/s", maxRPS)
	rep.notes["ladder"] = steps
	rep.set("success_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	return nil
}

// ladderStep is one rung's record in the envelope.
type ladderStep struct {
	Rate     float64 `json:"rate"`
	Achieved float64 `json:"achieved_rps"`
	P90MS    float64 `json:"p90_ms"`
	Failed   int     `json:"failed"`
	Backlog  bool    `json:"backlog_grew"`
	Pass     bool    `json:"pass"`
}

// ladder climbs the fixed rates until one misses the p90 limit, fails a
// request or lets the backlog grow. max_rps is the throughput achieved
// at the highest rate that passed. Refusals on an overloaded rung are
// that rung's verdict, not errors; wrong answers still fail the run.
func (sr *serveRun) ladder(ctx context.Context, rep *report, lp *loadPlan, secs time.Duration) (float64, []ladderStep) {
	stepDur := time.Duration(float64(secs) * ladderShare / float64(len(lp.ladder)))
	var steps []ladderStep
	best := 0.0
	for _, rate := range lp.ladder {
		reqs := take(sr.gen, int(rate*stepDur.Seconds()))
		ph := sr.c.openLoop(ctx, reqs, rate, stepDur)
		sr.verify(ctx, rep, reqs, ph, false)
		lat := ph.latenciesMS("")
		st := ladderStep{
			Rate:     rate,
			Achieved: float64(len(lat)) / ph.wall.Seconds(),
			P90MS:    quantile(lat, 0.9),
			Failed:   ph.failed(),
			Backlog:  ph.backlogGrew(lp.p90LimitMS),
		}
		st.Pass = st.Failed == 0 && st.P90MS <= lp.p90LimitMS && !st.Backlog
		steps = append(steps, st)
		if !st.Pass {
			break
		}
		best = st.Achieved
	}
	if best == 0 {
		rep.notes["ladder_warning"] = "no rung met the p90 limit; max_rps is the first rung's achieved rate"
		best = steps[0].Achieved
	}
	return best, steps
}
