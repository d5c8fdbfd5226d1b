// Command perfbench is neutronsim's end-to-end benchmark. It drives the
// system's layers from outside, through their public functions, on two
// workloads chosen to stress different layers:
//
//   - assess-catalog: the paper pipeline. A closed-loop, single-process
//     batch assesses all eight catalog devices with core.AssessContext at
//     a quick-style budget on their paper workloads and builds the
//     fast:thermal ratio table with core.RatioTable. Fault-injection
//     replay and the workload kernels do nearly all the work; the server
//     does none.
//   - serve-explore: traffic over loopback HTTP to an in-process neutrond
//     (server.New) with a surrogate model, carrying design points that
//     never repeat: tolerance-0 and out-of-hull cross sections and
//     slab-shielding transport what-ifs. Every request runs exact Monte
//     Carlo through the job queue and inserts into (and evicts from) the
//     result cache rather than reading it; replay does no work. It is
//     sent in closed-loop batches, at fixed open-loop rates and up a
//     ladder of open-loop rates.
//
// The cache-hit and surrogate tiers (zipf-repeated keys and in-hull
// queries with a tolerance) are measured layer by layer in
// serve-explore's traced run, by a closed-loop probe; they are not an
// end-to-end workload because their sub-millisecond open-loop latency
// percentiles are dominated by the host's scheduling stalls. The cluster
// is left out on purpose: a coordinator and workers sharing a small host
// measure the scheduler, not the system.
//
// Usage, from the root of a neutronsim checkout (run.sh builds it):
//
//	bash perfbench/run.sh --light 20 --heavy 40 --ladder 150,300,900 --p90-limit-ms 250 \
//	    --workload serve-explore --seed 1 --seconds 30 --trace 0
//
// The serve rates (light, heavy, the max_rps ladder and its p90 limit)
// come from BENCHMARK.json's command, so both sides of a comparison offer
// the same load. The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// reports per-layer numbers, each workload's unattributed share and its
// tracing overhead. Times are reported at a reference CPU speed, which a
// probe measures alongside the work (calib.go); perfbench runs on Linux
// only. The line before the result is the run's envelope: host, CPU, Go
// version, commit, seed, a digest of the answers, the measured times and
// latency percentiles. The command exits 1 when any answer check fails.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"neutronsim/internal/surrogate"
	"neutronsim/internal/telemetry"
)

// loadPlan is the fixed offered load of the serve workload.
type loadPlan struct {
	light, heavy float64   // req/s
	ladder       []float64 // req/s, ascending
	p90LimitMS   float64
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	load     loadPlan
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produced.
type report struct {
	attempted, failed int64
	checkFailures     []string
	metrics           map[string]metric
	digest            string
	notes             map[string]any // extra envelope fields
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed answer check. Each one counts as a failed
// attempt and turns the result incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.checkFailures) < 20 {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Job logs are formatted as the daemon would, then dropped: the
	// benchmark's standard error stays readable.
	telemetry.ConfigureLogger("neutrond", true, io.Discard)
	rep, err := run(context.Background(), opts)
	if err == nil {
		err = complete(rep, opts.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.checkFailures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	printEnvelope(opts, rep)
	correct := len(rep.checkFailures) == 0
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics})
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, opts options) (*report, error) {
	switch opts.workload {
	case "assess-catalog":
		return runAssess(ctx, opts)
	case "serve-explore":
		return runServe(ctx, opts)
	}
	return nil, fmt.Errorf("unknown workload %q (want assess-catalog or serve-explore)", opts.workload)
}

func parseFlags(args []string) (options, error) {
	fsFlags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fsFlags.StringVar(&opts.workload, "workload", "", "assess-catalog or serve-explore")
	fsFlags.Uint64Var(&opts.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fsFlags.Float64Var(&opts.seconds, "seconds", 30, "how long the timed phase lasts")
	fsFlags.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead")
	p := &opts.load
	fsFlags.Float64Var(&p.light, "light", 0, "serve light rate, req/s")
	fsFlags.Float64Var(&p.heavy, "heavy", 0, "serve heavy rate, req/s")
	fsFlags.Float64Var(&p.p90LimitMS, "p90-limit-ms", 0, "serve p90 latency limit for max_rps, ms")
	fsFlags.Func("ladder", "serve comma-separated ascending rates for max_rps, req/s", func(s string) error {
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("bad ladder rate %q", f)
			}
			p.ladder = append(p.ladder, v)
		}
		if !sort.Float64sAreSorted(p.ladder) {
			return fmt.Errorf("ladder %q is not ascending", s)
		}
		return nil
	})
	if err := fsFlags.Parse(args); err != nil {
		return opts, err
	}
	opts.trace = trace == 1
	if opts.seconds <= 0 {
		return opts, fmt.Errorf("--seconds must be positive")
	}
	if opts.workload == "serve-explore" {
		if p.light <= 0 || p.heavy <= p.light || len(p.ladder) == 0 || p.p90LimitMS <= 0 {
			return opts, fmt.Errorf("%s needs positive light < heavy rates, a ladder and a p90 limit", opts.workload)
		}
	}
	return opts, nil
}

// trainSurrogate is the system's set-up: it trains the stock design-space
// model from surrogate.DefaultGrid and verifies its content hash, exactly
// as neutrond's quickstart does before serving.
func trainSurrogate() (*surrogate.Model, error) {
	ds, err := surrogate.EvaluateGrid(surrogate.DefaultGrid())
	if err != nil {
		return nil, fmt.Errorf("evaluate surrogate grid: %w", err)
	}
	m, err := surrogate.Train(ds, surrogate.TrainConfig{})
	if err != nil {
		return nil, fmt.Errorf("train surrogate: %w", err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("verify surrogate: %w", err)
	}
	return m, nil
}

// setupRounds is how many times a run sets the system up; setup_s is
// the median.
const setupRounds = 3

// setUp trains the surrogate setupRounds times under the speed probe,
// reports the median wall time at the reference speed as setup_s and
// checks that training is deterministic.
func setUp(rep *report) (*surrogate.Model, error) {
	var model *surrogate.Model
	var times, measured []float64
	for i := 0; i < setupRounds; i++ {
		var m *surrogate.Model
		var err error
		_, wall, pr := measureCPU(func() { m, err = trainSurrogate() })
		if err != nil {
			return nil, err
		}
		if model != nil && m.Hash != model.Hash {
			rep.fail("surrogate training is not deterministic: hash %s then %s", model.Hash, m.Hash)
		}
		model = m
		var speed speedTally
		speed.add(pr)
		times = append(times, wall.Seconds()*speed.scale())
		measured = append(measured, wall.Seconds())
	}
	rep.set("setup_s", "s", median(times))
	rep.notes["measured_setup_s"] = median(measured)
	return model, nil
}

// allocMB returns the bytes allocated since before, in MB.
func allocMB(before runtime.MemStats) float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// printEnvelope writes the run's provenance as one JSON line.
func printEnvelope(opts options, rep *report) {
	host, _ := os.Hostname()
	env := map[string]any{
		"host":          host,
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"workload":      opts.workload,
		"seed":          opts.seed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"result_digest": rep.digest,
	}
	for k, v := range rep.notes {
		env[k] = v
	}
	out, _ := json.Marshal(map[string]any{"envelope": env})
	fmt.Println(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod under the
// working directory, so a run identifies the code it measured even in a
// checkout that is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestOf hashes answers in order.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\x00", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
