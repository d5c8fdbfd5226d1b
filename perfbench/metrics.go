package main

import (
	"fmt"
	"strings"

	"neutronsim/internal/device"
	"neutronsim/internal/workload"
)

// endToEnd lists the metrics a user of the system sees. Both workloads
// report every one of them:
//
//	metric         assess-catalog                    serve-explore
//	setup_s        surrogate training, median of three (the system's set-up)
//	batch_s        catalog to finished ratio table,  one closed-loop batch of
//	               one device at a time              800 requests
//	cpu_ms         CPU time per device assessed      CPU time per request
//	               (all repetitions)                 answered (the batches)
//	max_rps        devices assessed per second,      highest ladder rate that
//	               two in flight                     meets the p90 limit
//	success_ratio  answered and correct over attempted
//	alloc_mb       bytes allocated per catalog       per closed-loop batch
//
// Every time (setup_s, batch_s, cpu_ms and assess-catalog's max_rps) is
// pooled over the whole run and reported at the reference speed of
// calib.go; the measured values are in the envelope. The ladder's
// max_rps is the achieved rate of a fixed rung and is not scaled.
//
// Latency percentiles (p50 and p90 of per-device assessments and of
// open-loop requests at the fixed light and heavy rates) go to the
// envelope, not to the gated metrics. A percentile is decided by the few
// hundred milliseconds in which its samples ran, and on a small shared
// virtual machine the CPU's speed changes by up to 1.9 times from one
// second to the next: over ten runs their spread reached a quarter of
// the median and more.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"batch_s", "s"},
	{"cpu_ms", "ms"},
	{"max_rps", "1/s"},
	{"success_ratio", "ratio"},
	{"alloc_mb", "MB"},
}

// metricName makes a catalog name usable in a metric name
// ("APU-CPU+GPU" becomes "APU-CPU_GPU").
func metricName(s string) string { return strings.ReplaceAll(s, "+", "_") }

// perLayer lists the traced run's metrics. A layer that does no work on
// a workload reports 0 there.
func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, k := range workload.Names() {
		add("faultinject.replay_us."+k, "us")
	}
	for _, k := range workload.Names() {
		add("beam.campaign_s."+k, "s")
	}
	for _, d := range device.All() {
		add("core.assess_s."+metricName(d.Name), "s")
	}
	for _, m := range []struct{ name, unit string }{
		{"beam.runs_s", "s"},
		{"beam.merge_ms", "ms"},
		{"beam.runs", "count"},
		{"beam.upsets", "count"},
		{"engine.shards", "count"},
		{"plan.compile_ms", "ms"},
		{"plan.hit_ratio", "ratio"},
		{"server.decode_us", "us"},
		{"server.normalize_key_us", "us"},
		{"server.cache_get_us", "us"},
		{"server.encode_us", "us"},
		{"server.cache_hit_ratio", "ratio"},
		{"http.unattributed_us", "us"},
		{"surrogate.predict_us", "us"},
		{"surrogate.served_ratio", "ratio"},
		{"server.queue_wait_ms", "ms"},
		{"server.run_ms", "ms"},
		{"server.cache_put_us", "us"},
		{"server.cache_evictions", "count"},
		{"device.xsection_ms", "ms"},
		{"transport.neutrons_per_s", "1/s"},
		{"loadgen.late_ms", "ms"},
		{"tier.cache_p50_ms", "ms"},
		{"tier.surrogate_p50_ms", "ms"},
		{"tier.exact_p50_ms", "ms"},
		{"coverage.unattributed_share", "ratio"},
		{"coverage.trace_overhead_share", "ratio"},
	} {
		add(m.name, m.unit)
	}
	return out
}

// complete checks that a run reported exactly the metric set of its mode,
// filling idle per-layer metrics with 0.
func complete(rep *report, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer()
	}
	names := map[string]bool{}
	for _, m := range want {
		names[m.name] = true
		got, ok := rep.metrics[m.name]
		switch {
		case !ok && traced:
			rep.set(m.name, m.unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	for name := range rep.metrics {
		if !names[name] {
			return fmt.Errorf("metric %s is not in this mode's list", name)
		}
	}
	return nil
}
