// Command loadgen replays a job storm against a neutrond node (usually a
// cluster coordinator) and reports latency quantiles, saturation
// throughput and the submit-path cache hit ratio as JSON.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8791 [-concurrency 8] [-duration 3s]
//	        [-keys 45] [-dist uniform|zipf] [-zipf-s 1.2] [-seed 1]
//	        [-campaign beam|xsection] [-tolerance 0.1]
//	        [-campaign-seconds 2000] [-out -]
//
// The storm draws campaigns from a -keys-sized key space: distinct cache
// keys, identical compute cost. -dist uniform sweeps the whole space
// (the worst case for one node's result cache, the best case for a fleet
// whose rendezvous routing shards keys across workers); -dist zipf
// concentrates on hot keys like a real job mix.
//
// -campaign xsection storms design-space cross-section queries instead:
// two thirds of the keys carry -tolerance and are surrogate-servable on
// a node started with -surrogate, the rest demand exact answers. The
// report's tiers section then breaks latency down per serving tier
// (cache / surrogate / exact).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neutronsim/internal/cluster"
	"neutronsim/internal/server"
	"neutronsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		telemetry.Log().Error("loadgen: fatal", "error", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "base URL to storm (required)")
	concurrency := fs.Int("concurrency", 8, "closed-loop in-flight submitters")
	duration := fs.Duration("duration", 3*time.Second, "storm length")
	keys := fs.Int("keys", 45, "distinct campaign keys")
	dist := fs.String("dist", "uniform", "key distribution: uniform or zipf")
	zipfS := fs.Float64("zipf-s", 1.2, "zipf skew (>1; only with -dist zipf)")
	seed := fs.Uint64("seed", 1, "storm seed (key picking is reproducible)")
	campaignSeconds := fs.Float64("campaign-seconds", 2000, "simulated beam-seconds per campaign (compute cost per cache miss)")
	campaign := fs.String("campaign", "beam", "storm campaign kind: beam or xsection")
	tolerance := fs.Float64("tolerance", 0.1, "relative-error tolerance on surrogate-servable xsection keys (only with -campaign xsection)")
	out := fs.String("out", "-", "report path (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("missing -target")
	}
	var gen func(key int) *server.CampaignRequest
	switch *campaign {
	case "beam":
		gen = cluster.BenchCampaign(*campaignSeconds)
	case "xsection":
		gen = cluster.XsectionCampaign(*tolerance)
	default:
		return fmt.Errorf("unknown -campaign %q (beam or xsection)", *campaign)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := cluster.RunLoad(ctx, cluster.LoadConfig{
		Target:       *target,
		Concurrency:  *concurrency,
		Duration:     *duration,
		Keys:         *keys,
		Distribution: *dist,
		ZipfS:        *zipfS,
		Seed:         *seed,
		Campaign:     gen,
	})
	if err != nil {
		return err
	}
	if *out == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	// Atomic write: a dashboard tailing the report file never reads a
	// torn document.
	return telemetry.WriteJSONAtomic(*out, rep)
}
