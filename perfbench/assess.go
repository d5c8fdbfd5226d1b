package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"neutronsim/internal/core"
	"neutronsim/internal/device"
	"neutronsim/internal/faultinject"
	"neutronsim/internal/plan"
	"neutronsim/internal/rng"
	"neutronsim/internal/telemetry/trace"
	"neutronsim/internal/workload"
)

// catalogScale sets each device's beam time as a share of
// core.QuickBudget (600 s fast, 3600 s thermal, boost 50). Devices whose
// faults are expensive to replay (the GPUs' and the FPGA's YOLO) get less
// beam time, cheap ones more, so that one catalog takes a few seconds on
// a small host and every device still collects enough errors for the
// ratio checks below.
var catalogScale = map[string]float64{
	"XeonPhi":     0.2,
	"K20":         0.02,
	"TitanX":      0.07,
	"TitanV":      0.04,
	"APU-CPU":     0.2,
	"APU-GPU":     0.2,
	"APU-CPU+GPU": 0.2,
	"Zynq7000":    0.02,
}

// catalogBudget is d's budget; share scales it (1 for measured passes).
func catalogBudget(d *device.Device, share float64) core.Budget {
	q := core.QuickBudget()
	s := catalogScale[d.Name] * share
	return core.Budget{FastSeconds: q.FastSeconds * s, ThermalSeconds: q.ThermalSeconds * s, Boost: q.Boost}
}

// paperSDC is the paper's fast:thermal SDC ratio per device, the "paper
// SDC" column of EXPERIMENTS.md E3. Values the paper gives only as a bar
// in its figure ("~2") are read off the figure.
var paperSDC = map[string]float64{
	"XeonPhi":     10.14,
	"K20":         2,
	"TitanX":      3,
	"TitanV":      2,
	"APU-CPU":     2.5,
	"APU-GPU":     2.5,
	"APU-CPU+GPU": 2.5,
	"Zynq7000":    2.33,
}

// The ratio check: a device's measured SDC ratio r with 95% CI [lo, hi]
// passes when |r - paper| <= ciWidths*(hi-lo)/2 + modelSlack*paper. The
// CI term absorbs this budget's Monte Carlo noise at any seed (three
// half-widths of a 95% interval is about six standard errors); the slack
// term is the calibration's own distance from the paper, which
// EXPERIMENTS.md shows reaching 13% for APU-CPU at full budget.
const (
	ciWidths   = 3.0
	modelSlack = 0.15
)

// deviceRun is one device's assessment within a catalog.
type deviceRun struct {
	a    *core.Assessment
	wall time.Duration
	snap *trace.Snapshot // set when traced
}

// catalogRun is one pass of the paper pipeline over the catalog.
type catalogRun struct {
	devices []deviceRun
	rows    []core.RatioRow
	wall    time.Duration
	cpu     time.Duration // process CPU time of the whole pass
	allocMB float64
}

// repSeed derives repetition rep's base seed from the workload seed.
// Every repetition gets fresh campaign seeds, so every plan lookup is a
// miss: each repetition starts from the same effective plan.Shared state
// (nothing it needs is cached) and pays plan compilation like a fresh
// process running the pipeline once. core.AssessContext is called
// directly, never through internal/experiments, whose assessCache memo
// would turn repeats into hits.
func repSeed(seed uint64, rep int) uint64 {
	return rng.New(seed).Split().Uint64() + uint64(rep+1)*0x9e3779b97f4a7c15
}

// assessCatalog assesses every catalog device, width at a time, and
// builds the ratio table. width 1 is the paper pipeline's serial order;
// width 2 assesses the devices in fixed pairs, both of a pair at once,
// so that which assessments share the CPUs does not depend on timing.
// When traced, each core.AssessContext call runs under its own trace so
// its spans can be read back. The pass runs under a speed probe, whose
// result is added to speed when that is not nil.
func assessCatalog(ctx context.Context, base uint64, width int, traced bool, share float64, speed *speedTally) (*catalogRun, error) {
	devs := device.All()
	runs := make([]deviceRun, len(devs))
	errs := make([]error, len(devs))
	assess := func(i int) {
		d := devs[i]
		actx := ctx
		var tr *trace.Trace
		var root *trace.Span
		if traced {
			tr, root = trace.New("perfbench.assess", nil)
			actx = trace.NewContext(ctx, root)
		}
		t0 := time.Now()
		a, err := core.AssessContext(actx, d, nil, catalogBudget(d, share), core.DeviceSeed(base, i))
		runs[i].wall = time.Since(t0)
		runs[i].a, errs[i] = a, err
		if traced {
			root.End()
			runs[i].snap = tr.Snapshot()
		}
	}
	runtime.GC() // start from a collected heap, like every serve phase
	mem := memStats()
	var rows []core.RatioRow
	var failed error
	cpu, wall, pr := measureCPU(func() {
		for lo := 0; lo < len(devs); lo += width {
			var wg sync.WaitGroup
			for i := lo; i < lo+width && i < len(devs); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					assess(i)
				}(i)
			}
			wg.Wait()
		}
		as := make([]*core.Assessment, 0, len(devs))
		for i, err := range errs {
			if err != nil {
				failed = fmt.Errorf("assess %s: %w", devs[i].Name, err)
				return
			}
			as = append(as, runs[i].a)
		}
		rows = core.RatioTable(as)
	})
	if failed != nil {
		return nil, failed
	}
	if speed != nil {
		speed.add(pr)
	}
	return &catalogRun{devices: runs, rows: rows, wall: wall, cpu: cpu, allocMB: allocMB(mem)}, nil
}

// tableBytes renders a ratio table exactly, NaN ratios (a band with no
// DUEs) included, for the result digest.
func tableBytes(rows []core.RatioRow) []byte {
	var b []byte
	for _, r := range rows {
		b = fmt.Appendf(b, "%s %v %v %v %v %v %v\n", r.Device, r.SDCRatio, r.SDCLo, r.SDCHi, r.DUERatio, r.DUELo, r.DUEHi)
	}
	return b
}

// warmUpShare is the budget share of the untimed catalog pass that
// precedes the measured ones, so that none of them pays the process's
// first-pass costs (heap growth, first use of each kernel).
const warmUpShare = 0.25

// pairs calls rep for repetitions 0, 1, 2, ... two at a time, starting
// another pair while at least half of one more fits in seconds.
func pairs(seconds float64, rep func(r int) error) error {
	start := time.Now()
	for r := 0; ; r += 2 {
		t0 := time.Now()
		if err := rep(r); err != nil {
			return err
		}
		if err := rep(r + 1); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0)/2 > time.Duration(seconds*float64(time.Second)) {
			return nil
		}
	}
}

// warmUpCatalog runs the untimed warm-up pass.
func warmUpCatalog(ctx context.Context, seed uint64) error {
	_, err := assessCatalog(ctx, repSeed(seed, -1), 1, false, warmUpShare, nil)
	return err
}

// checkCatalog applies the paper checks to one ratio table and returns
// how many devices it checked.
func checkCatalog(rep *report, rows []core.RatioRow) int64 {
	if len(rows) == 0 || rows[0].Device != "XeonPhi" {
		rep.fail("ratio table does not rank XeonPhi first: %+v", rows)
	}
	for _, r := range rows {
		p, ok := paperSDC[r.Device]
		if !ok {
			rep.fail("device %s has no paper ratio", r.Device)
			continue
		}
		tol := ciWidths*(r.SDCHi-r.SDCLo)/2 + modelSlack*p
		if math.IsNaN(r.SDCRatio) || math.Abs(r.SDCRatio-p) > tol {
			rep.fail("%s SDC ratio %.3f [%.3f, %.3f] is not within %.3f of the paper's %.2f",
				r.Device, r.SDCRatio, r.SDCLo, r.SDCHi, tol, p)
		}
	}
	return int64(len(rows))
}

func runAssess(ctx context.Context, opts options) (*report, error) {
	rep := newReport()
	if opts.trace {
		return rep, traceAssess(ctx, opts, rep)
	}
	if _, err := setUp(rep); err != nil {
		return nil, err
	}
	if err := warmUpCatalog(ctx, opts.seed); err != nil {
		return nil, err
	}
	// Repetitions alternate one device at a time (light) with two at
	// once (heavy), in pairs, while another pair fits in the time.
	var light, heavy []*catalogRun
	var lightSpeed, heavySpeed speedTally
	err := pairs(opts.seconds, func(r int) error {
		width, speed := 1, &lightSpeed
		if r%2 == 1 {
			width, speed = 2, &heavySpeed
		}
		cr, err := assessCatalog(ctx, repSeed(opts.seed, r), width, false, 1, speed)
		if err != nil {
			return err
		}
		rep.attempted += checkCatalog(rep, cr.rows)
		if width == 1 {
			light = append(light, cr)
		} else {
			heavy = append(heavy, cr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.digest = digestOf([][]byte{tableBytes(light[0].rows)})
	// Every time is pooled over the run and taken to the reference speed
	// (see calib.go): batch_s is the light repetitions' mean catalog wall
	// time, max_rps the devices assessed per second of the heavy ones'
	// wall time, cpu_ms the CPU time per device assessed over both. The
	// measured figures and the per-device latencies go to the envelope.
	var all speedTally
	var cpu time.Duration
	var devices int
	var alloc []float64
	for _, reps := range []struct {
		name  string
		runs  []*catalogRun
		speed *speedTally
	}{{"light", light, &lightSpeed}, {"heavy", heavy, &heavySpeed}} {
		var wall time.Duration
		var n int
		var devMS []float64
		for _, cr := range reps.runs {
			cpu += cr.cpu
			wall += cr.wall
			n += len(cr.devices)
			for _, d := range cr.devices {
				devMS = append(devMS, ms(d.wall))
			}
			alloc = append(alloc, cr.allocMB)
		}
		devices += n
		all.add(reps.speed.probeResult)
		scale := reps.speed.scale()
		rep.notes["p50_ms."+reps.name] = quantile(devMS, 0.5)
		rep.notes["p90_ms."+reps.name] = quantile(devMS, 0.9)
		if reps.name == "light" {
			batch := wall.Seconds() / float64(len(reps.runs))
			rep.set("batch_s", "s", batch*scale)
			rep.notes["measured_batch_s"] = batch
		} else {
			rps := float64(n) / wall.Seconds()
			rep.set("max_rps", "1/s", rps/scale)
			rep.notes["measured_max_rps"] = rps
		}
	}
	perDevice := ms(cpu) / float64(devices)
	rep.set("cpu_ms", "ms", perDevice*all.scale())
	rep.notes["measured_cpu_ms"] = perDevice
	rep.notes["speed_scale"] = map[string]float64{"light": lightSpeed.scale(), "heavy": heavySpeed.scale(), "all": all.scale()}
	rep.set("success_ratio", "ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	rep.set("alloc_mb", "MB", median(alloc))
	rep.notes["repetitions"] = map[string]int{"light": len(light), "heavy": len(heavy)}
	return rep, nil
}

// traceAssess is the traced run: untraced and traced serial repetitions
// alternate, the difference of their mean wall times at the reference
// speed is the tracing overhead, and the traced ones' span trees give the
// per-layer split.
func traceAssess(ctx context.Context, opts options, rep *report) error {
	if err := warmUpCatalog(ctx, opts.seed); err != nil {
		return err
	}
	var plain, traced []*catalogRun
	var plainSpeed, tracedSpeed speedTally
	planBefore := plan.Shared.Stats()
	err := pairs(opts.seconds, func(r int) error {
		speed := &plainSpeed
		if r%2 == 1 {
			speed = &tracedSpeed
		}
		cr, err := assessCatalog(ctx, repSeed(opts.seed, r), 1, r%2 == 1, 1, speed)
		if err != nil {
			return err
		}
		rep.attempted += checkCatalog(rep, cr.rows)
		if r%2 == 1 {
			traced = append(traced, cr)
		} else {
			plain = append(plain, cr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	planAfter := plan.Shared.Stats()
	rep.digest = digestOf([][]byte{tableBytes(plain[0].rows)})

	// Untraced per-device wall times.
	for i, d := range device.All() {
		var xs []float64
		for _, cr := range plain {
			xs = append(xs, cr.devices[i].wall.Seconds())
		}
		rep.set("core.assess_s."+metricName(d.Name), "s", median(xs))
	}

	// Span sums per traced repetition, then medians across repetitions.
	perRep := map[string][]float64{}
	add := func(name string, v float64, r int) {
		for len(perRep[name]) <= r {
			perRep[name] = append(perRep[name], 0)
		}
		perRep[name][r] += v
	}
	dropped := 0
	for r, cr := range traced {
		for _, dr := range cr.devices {
			dropped += dr.snap.Dropped
			spans := spansByName(dr.snap.Root)
			add("beam.runs_s", sumDur(spans["beam.runs"]), r)
			add("beam.merge_ms", 1000*sumDur(spans["beam.merge"]), r)
			add("plan.compile_ms", 1000*sumDur(spans["plan.compile"]), r)
			add("engine.shards", float64(len(spans["engine.shard"])), r)
			campaigns := spans["beam.campaign"]
			add("coverage.campaign_s", sumDur(campaigns), r)
			// Campaigns run fast then thermal for each workload in order.
			for j, c := range campaigns {
				if j/2 < len(dr.a.Workloads) {
					add("beam.campaign_s."+dr.a.Workloads[j/2], c.DurationSeconds, r)
				}
			}
			for _, p := range dr.a.PerWorkload {
				add("beam.runs", float64(p.Fast.Runs+p.Thermal.Runs), r)
				add("beam.upsets", float64(p.Fast.Upsets+p.Thermal.Upsets), r)
			}
		}
	}
	units := map[string]string{"beam.runs_s": "s", "beam.merge_ms": "ms", "plan.compile_ms": "ms",
		"engine.shards": "count", "beam.runs": "count", "beam.upsets": "count"}
	for _, k := range workload.Names() {
		units["beam.campaign_s."+k] = "s"
	}
	for name, unit := range units {
		rep.set(name, unit, median(perRep[name]))
	}
	hits := planAfter.Hits - planBefore.Hits
	misses := planAfter.Misses - planBefore.Misses
	rep.set("plan.hit_ratio", "ratio", plan.Stats{Hits: hits, Misses: misses}.HitRatio())

	var unattributed []float64
	var plainWall, tracedWall time.Duration
	for r, cr := range traced {
		w := cr.wall.Seconds()
		unattributed = append(unattributed, (w-perRep["coverage.campaign_s"][r])/w)
		tracedWall += cr.wall
	}
	for _, cr := range plain {
		plainWall += cr.wall
	}
	rep.set("coverage.unattributed_share", "ratio", median(unattributed))
	tracedMean := tracedWall.Seconds() / float64(len(traced)) * tracedSpeed.scale()
	plainMean := plainWall.Seconds() / float64(len(plain)) * plainSpeed.scale()
	rep.set("coverage.trace_overhead_share", "ratio", tracedMean/plainMean-1)

	if err := measureReplay(rep, opts.seed); err != nil {
		return err
	}
	rep.notes["repetitions"] = map[string]int{"untraced": len(plain), "traced": len(traced)}
	rep.notes["dropped_spans"] = dropped
	return nil
}

// spansByName indexes a span tree by span name, each list in start order.
func spansByName(root *trace.SpanSnapshot) map[string][]*trace.SpanSnapshot {
	out := map[string][]*trace.SpanSnapshot{}
	var walk func(n *trace.SpanSnapshot)
	walk = func(n *trace.SpanSnapshot) {
		if n == nil {
			return
		}
		out[n.Name] = append(out[n.Name], n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

func sumDur(spans []*trace.SpanSnapshot) float64 {
	total := 0.0
	for _, s := range spans {
		total += s.DurationSeconds
	}
	return total
}

// replaySamples is how many times each kernel's replay is timed.
const replaySamples = 5

// measureReplay times faultinject.NewInjector plus one Injector.Run of a
// single-bit memory fault halfway through the kernel, for each of the
// nine kernels: the unit of work a beam campaign repeats per fault.
func measureReplay(rep *report, seed uint64) error {
	for _, k := range workload.Names() {
		var xs []float64
		for i := 0; i < replaySamples; i++ {
			w, err := workload.New(k)
			if err != nil {
				return err
			}
			s := rng.New(seed + uint64(i))
			t0 := time.Now()
			inj, err := faultinject.NewInjector(w, seed, faultinject.Config{})
			if err != nil {
				return fmt.Errorf("replay %s: %w", k, err)
			}
			res := inj.Run([]faultinject.Timed{{
				Step:  w.Steps() / 2,
				Fault: device.Fault{Target: device.TargetMemory, Bits: 1},
			}}, s)
			xs = append(xs, us(time.Since(t0)))
			if res.Outcome == 0 {
				rep.fail("replay %s returned no outcome", k)
			}
		}
		rep.set("faultinject.replay_us."+k, "us", median(xs))
	}
	rep.notes["replay_fault"] = "single-bit memory fault at step Steps()/2"
	return nil
}
