# Developer entry points. `make check` is the tier-1 gate plus vet and the
# race detector; `make bench` regenerates every paper artifact and leaves a
# BENCH_telemetry.json snapshot from the telemetry registry plus the
# BENCH_sampling.json sampling fast-path snapshot.

GO ?= go

.PHONY: check vet build test race bench bench-sampling bench-plan bench-vr bench-cluster bench-engine bench-surrogate neutrond loadgen clean

check: vet build race

# perfbench is its own module, so ./... never reaches it; vetting it here
# builds the benchmark harness against the current internal packages.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package regenerates every paper artifact and far exceeds
# go test's default 10m deadline under the race detector's ~10x slowdown.
race:
	$(GO) test -race -timeout 45m ./...

bench: bench-sampling bench-plan bench-vr bench-cluster bench-engine bench-surrogate
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench-sampling runs the sampling + beam hot-loop benchmarks single-threaded
# (the configuration the ≥2x speedup claim is made under) and writes
# BENCH_sampling.json with ns/op, allocs/op, and speedups against the
# recorded pre-alias baseline. The snapshot writer fails if the run-loop
# benchmarks report any allocations.
bench-sampling:
	GOMAXPROCS=1 $(GO) test -run='^$$' -bench=. -benchmem ./internal/spectrum ./internal/beam

# bench-plan measures campaign setup cold (full calibration compile) vs warm
# (plan-cache hit) and writes BENCH_plan.json. The snapshot writer fails if
# the warm path compiled anything during the timed loop or is less than 10x
# faster than cold setup.
bench-plan:
	GOMAXPROCS=1 $(GO) test -run='^$$' -bench='BenchmarkPlan' -benchmem ./internal/plan

# bench-vr runs the importance-sampling E3 comparison (exact vs zero-bias
# vs thermally biased Zynq campaign at ChipIR) and writes BENCH_vr.json.
# The snapshot writer fails if the zero-bias campaign is not bit-identical
# to the exact one or the neutron-budget reduction on the thermal-DUE
# channel drops below 20x.
bench-vr:
	$(GO) test -run='^$$' -bench='BenchmarkVR' -benchmem ./internal/vr

# bench-engine measures the sharded campaign executor across a GOMAXPROCS
# matrix (1, 2, 4, … up to NumCPU) and rewrites BENCH_engine.json as a
# scaling curve. The snapshot writer fails if the curve contains a 4-core
# point whose speedup over serial is below 2.5x — the CI scaling floor.
bench-engine:
	$(GO) test -run='^$$' -bench='BeamCampaign' -benchtime=2x ./internal/engine

# bench-surrogate trains the stock design-space surrogate, measures its
# predict path against warm exact Monte Carlo at the production sample
# budget, storms a surrogate-enabled server across all three serving
# tiers, and writes BENCH_surrogate.json. The snapshot writer fails if
# the held-out error escapes the certified bound, the latency win drops
# below 1000x, or the tier storm sees errors.
bench-surrogate:
	$(GO) test -run='^$$' -bench='BenchmarkSurrogate' -benchmem ./internal/surrogate

# bench-cluster compares a single neutrond node against a coordinator +
# 3-worker fleet under the same closed-loop job storm and writes
# BENCH_cluster.json. The snapshot writer fails if distributed execution
# is not bit-identical to the direct library result or the fleet's
# saturation throughput is below 2x the single node's.
bench-cluster:
	$(GO) test -run='^$$' -bench='BenchmarkClusterStorm' -benchtime=1x ./internal/cluster

neutrond:
	$(GO) build -o neutrond ./cmd/neutrond

loadgen:
	$(GO) build -o loadgen ./cmd/loadgen

clean:
	rm -f BENCH_telemetry.json BENCH_sampling.json BENCH_plan.json BENCH_vr.json BENCH_cluster.json BENCH_engine.json BENCH_surrogate.json neutrond loadgen
