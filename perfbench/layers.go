package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/server"
	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

// The traced serve run. The benchmark does not instrument the server:
// it replays each answered request of the traced phase through the same
// public functions the POST handler calls (JSON decode, Normalize plus
// CacheKey, Cache.Get/Put, the 202 response encode) and times each call,
// and it reads each exact job's queue wait and run time from
// GET /v1/jobs/{id}/trace. What a request's latency holds beyond those
// layers is HTTP, the SSE wait and the loopback: http.unattributed_us.
// The hot probe then measures the tiers serve-explore bypasses: result
// cache hits and the surrogate's prediction.

// tracedShare is the length of each of the traced run's two phases
// (untraced, then traced) as a share of --seconds. Both run at the heavy
// rate, where queueing shows.
const tracedShare = 0.4

// predict runs the surrogate tier's gate and prediction for a query, as
// the server does: spectrum lookup, feature vector, hull and spectrum
// checks, polynomial evaluation.
func predict(m *surrogate.Model, p *server.XsectionParams) (float64, bool) {
	sp, err := server.SpectrumByName(p.Spectrum)
	if err != nil {
		return 0, false
	}
	f := surrogate.FeatureVector(p.BoronPerCm2, p.QcritFC, sp, plan.Bias{})
	fp, ok := surrogate.SpectrumFingerprint(sp)
	if !ok || !m.Hull.Contains(f) || !m.SpectrumTrained(fp) {
		return 0, false
	}
	return m.PredictSigma(f), true
}

func (sr *serveRun) stats(ctx context.Context) (server.StatsResponse, error) {
	var st server.StatsResponse
	body, err := sr.c.get(ctx, "/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// jobTiming is what a job's trace says about it.
type jobTiming struct {
	queueMS, runMS   float64
	transportSeconds float64
}

func parseJobTrace(body []byte) (jobTiming, bool) {
	var snap trace.Snapshot
	if len(body) == 0 || json.Unmarshal(body, &snap) != nil || snap.Root == nil {
		return jobTiming{}, false
	}
	var jt jobTiming
	for _, st := range snap.Stages {
		if st.Stage == "queue" {
			jt.queueMS = 1000 * st.Seconds
		}
	}
	jt.runMS = 1000*snap.Root.DurationSeconds - jt.queueMS
	jt.transportSeconds = sumDur(spansByName(snap.Root)["transport.simulate"])
	return jt, true
}

// traced runs an untraced and a traced phase at the heavy rate, derives
// the per-layer metrics from the traced one, and then runs the hot probe.
func (sr *serveRun) traced(ctx context.Context, rep *report, lp *loadPlan, secs time.Duration) error {
	dur := time.Duration(float64(secs) * tracedShare)
	n := int(lp.heavy * dur.Seconds())
	plainReqs := take(sr.gen, n)
	plain := sr.c.openLoop(ctx, plainReqs, lp.heavy, dur)
	sr.verify(ctx, rep, plainReqs, plain, true)

	reqs := take(sr.gen, n)
	sr.c.traceJobs = true
	ph := sr.c.openLoop(ctx, reqs, lp.heavy, dur)
	sr.c.traceJobs = false
	after, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	rep.digest = digestOf(sr.verify(ctx, rep, reqs, ph, true))

	// Replay every answered request through the handler's layers, in
	// traffic order, against a result cache that, like the server's,
	// holds none of the workload's keys.
	cache := server.NewCache(0, 0, telemetry.NewRegistry())
	var decode, normKey, get, encode, puts, unattributed []float64
	var queueMS, runMS []float64
	var latencyUS, unattributedUS float64
	var neutrons, transportSecs float64
	var xsections []request
	for i, o := range ph.outcomes {
		if o.err != nil {
			continue
		}
		t0 := time.Now()
		dec := json.NewDecoder(bytes.NewReader(reqs[i].body))
		dec.DisallowUnknownFields()
		var raw server.CampaignRequest
		decErr := dec.Decode(&raw)
		d := us(time.Since(t0))
		t0 = time.Now()
		norm, normErr := raw.Normalize()
		if decErr != nil || normErr != nil {
			return fmt.Errorf("replay request %d: decode %v, normalize %v", i, decErr, normErr)
		}
		key := norm.CacheKey()
		nk := us(time.Since(t0))
		t0 = time.Now()
		cache.Get(key)
		g := us(time.Since(t0))
		t0 = time.Now()
		err := json.NewEncoder(io.Discard).Encode(server.JobInfo{
			ID: o.jobID, State: server.StateQueued, Kind: norm.Kind, Key: key,
			TraceID: "00000000000000000000000000000000",
			Stages:  []trace.StageTiming{{Stage: "queue"}},
		})
		if err != nil {
			return err
		}
		e := us(time.Since(t0))
		t0 = time.Now()
		cache.Put(key, o.result)
		puts = append(puts, us(time.Since(t0)))
		decode, normKey, get, encode = append(decode, d), append(normKey, nk), append(get, g), append(encode, e)
		spent := d + nk + g + e
		if jt, ok := parseJobTrace(o.trace); ok {
			queueMS, runMS = append(queueMS, jt.queueMS), append(runMS, jt.runMS)
			spent += 1000 * (jt.queueMS + jt.runMS)
			if norm.Transport != nil && jt.transportSeconds > 0 {
				neutrons += float64(norm.Transport.Neutrons)
				transportSecs += jt.transportSeconds
			}
		}
		if norm.Xsection != nil {
			xsections = append(xsections, reqs[i])
		}
		lat := us(o.latency)
		unattributed = append(unattributed, lat-spent)
		latencyUS += lat
		unattributedUS += lat - spent
	}
	rep.set("server.decode_us", "us", median(decode))
	rep.set("server.normalize_key_us", "us", median(normKey))
	rep.set("server.cache_get_us", "us", median(get))
	rep.set("server.encode_us", "us", median(encode))
	rep.set("server.cache_put_us", "us", median(puts))
	rep.set("http.unattributed_us", "us", median(unattributed))
	rep.set("server.queue_wait_ms", "ms", median(queueMS))
	rep.set("server.run_ms", "ms", median(runMS))
	if transportSecs > 0 {
		rep.set("transport.neutrons_per_s", "1/s", neutrons/transportSecs)
	}
	rep.set("device.xsection_ms", "ms", xsectionMS(xsections))
	// Keys never repeat, so every completed job's entry that the cache no
	// longer holds was evicted.
	rep.set("server.cache_evictions", "count", float64(after.Jobs.Completed-int64(after.ResultCache.Entries)))
	rep.set("loadgen.late_ms", "ms", quantile(ph.lateMS(), 0.99))
	rep.set("tier.exact_p50_ms", "ms", quantile(ph.latenciesMS(tierExact), 0.5))
	if latencyUS > 0 {
		rep.set("coverage.unattributed_share", "ratio", unattributedUS/latencyUS)
	}
	rep.set("coverage.trace_overhead_share", "ratio",
		quantile(ph.latenciesMS(""), 0.5)/quantile(plain.latenciesMS(""), 0.5)-1)
	rep.notes["traced_requests"] = len(ph.outcomes)
	return sr.hotProbe(ctx, rep)
}

// hotProbeRequests is the length of the hot probe's measured batch.
const hotProbeRequests = 6000

// hotProbe measures the tiers serve-explore bypasses. It warms the
// server with the hot working set, checking each answer against a direct
// library run, then sends hot traffic (zipf-repeated keys and in-hull
// queries with a tolerance) closed loop and reads the cache and
// surrogate counters around it.
func (sr *serveRun) hotProbe(ctx context.Context, rep *report) error {
	hg := newHotGen(sr.seed)
	ph := sr.c.closedLoop(ctx, hg.keys)
	rep.attempted += int64(len(ph.outcomes))
	for i, o := range ph.outcomes {
		if o.err != nil {
			return fmt.Errorf("hot probe warm-up %d: %w", i, o.err)
		}
		want, key, err := executeDirect(ctx, hg.keys[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(o.result, want) {
			rep.fail("hot key %d: served body differs from server.Execute", i)
		}
		sr.warm[key] = o.result
	}
	before, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	reqs := take(hg, hotProbeRequests)
	ph = sr.c.closedLoop(ctx, reqs)
	after, err := sr.stats(ctx)
	if err != nil {
		return err
	}
	sr.verify(ctx, rep, reqs, ph, true)
	var pred []float64
	for i, o := range ph.outcomes {
		if o.err == nil && o.tier == tierSurrogate {
			t0 := time.Now()
			predict(sr.model, reqs[i].raw.Xsection)
			pred = append(pred, us(time.Since(t0)))
		}
	}
	rep.set("surrogate.predict_us", "us", median(pred))
	hits := after.ResultCache.Hits - before.ResultCache.Hits
	misses := after.ResultCache.Misses - before.ResultCache.Misses
	if hits+misses > 0 {
		rep.set("server.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	served := after.Surrogate.Served - before.Surrogate.Served
	consulted := served + after.Surrogate.FallbackHull - before.Surrogate.FallbackHull +
		after.Surrogate.FallbackTolerance - before.Surrogate.FallbackTolerance +
		after.Surrogate.Rejected - before.Surrogate.Rejected
	if consulted > 0 {
		rep.set("surrogate.served_ratio", "ratio", float64(served)/float64(consulted))
	}
	rep.set("tier.cache_p50_ms", "ms", quantile(ph.latenciesMS(tierCache), 0.5))
	rep.set("tier.surrogate_p50_ms", "ms", quantile(ph.latenciesMS(tierSurrogate), 0.5))
	return nil
}

// xsectionSamples bounds how many exact cross sections are re-timed.
const xsectionSamples = 16

// xsectionMS times the device physics of exact cross-section requests
// directly: the design device's upset cross-section estimator.
func xsectionMS(reqs []request) float64 {
	var xs []float64
	for i, r := range reqs {
		if i >= xsectionSamples {
			break
		}
		p := r.raw.Xsection
		sp, err := server.SpectrumByName(p.Spectrum)
		if err != nil {
			continue
		}
		d := surrogate.DesignDevice(p.BoronPerCm2, p.QcritFC)
		t0 := time.Now()
		if _, err := d.UpsetCrossSection(sp.Sample, p.Samples, rng.New(r.raw.Seed)); err == nil {
			xs = append(xs, ms(time.Since(t0)))
		}
	}
	return median(xs)
}
