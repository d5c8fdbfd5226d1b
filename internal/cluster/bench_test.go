package cluster

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"neutronsim/internal/telemetry"
)

// minSpeedup is the CI floor: a 3-worker fleet must saturate at ≥ 2× the
// single node (ISSUE acceptance criterion). On a box where every process
// shares the cores, the factor comes from cache capacity — see
// BenchOptions.
const minSpeedup = 2

func TestMain(m *testing.M) {
	// The storms push hundreds of jobs through in-process servers; their
	// per-job log lines would drown the test output.
	telemetry.ConfigureLogger("cluster-test", false, io.Discard)
	code := m.Run()
	bench := flag.Lookup("test.bench")
	if code == 0 && bench != nil && bench.Value.String() != "" {
		if err := writeClusterSnapshot("../../BENCH_cluster.json"); err != nil {
			fmt.Fprintln(os.Stderr, "cluster bench snapshot:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeClusterSnapshot runs the full comparison, enforces the gates, and
// publishes the report. Gate failures fail the bench run (exit 1), so CI
// cannot ship an identity break or a fleet slower than its floor.
func writeClusterSnapshot(path string) error {
	rep, err := CompareBench(context.Background(), DefaultBenchOptions())
	if err != nil {
		return err
	}
	if err := Gate(rep, minSpeedup); err != nil {
		return err
	}
	return telemetry.WriteJSONAtomic(path, rep)
}

// TestClusterBenchQuick is the tier-1 smoke: a shortened storm must
// complete error-free with bit-exact identity, and the fleet must not be
// slower than the single node. The full 2× floor is only enforced by the
// bench snapshot, where storms run long enough for a stable ratio.
func TestClusterBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cluster storm in -short mode")
	}
	o := DefaultBenchOptions()
	o.Duration = 800 * time.Millisecond
	rep, err := CompareBench(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IdentityBitExact {
		t.Error("distributed results diverged from local execution")
	}
	if rep.SingleNode.Errors > 0 || rep.Cluster.Errors > 0 {
		t.Errorf("storm errors: single %d, cluster %d", rep.SingleNode.Errors, rep.Cluster.Errors)
	}
	if rep.SingleNode.Requests == 0 || rep.Cluster.Requests == 0 {
		t.Fatal("storm made no requests")
	}
	if rep.SaturationSpeedup < 1 {
		t.Errorf("fleet slower than single node: %.2fx (single %.1f rps, cluster %.1f rps)",
			rep.SaturationSpeedup, rep.SingleNode.Throughput, rep.Cluster.Throughput)
	}
}

// BenchmarkClusterStorm times one short cluster-side storm (servers and
// caches are rebuilt per iteration; the interesting number is the
// published snapshot, this keeps `go test -bench` meaningful).
func BenchmarkClusterStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := DefaultBenchOptions()
		o.Duration = 500 * time.Millisecond
		if _, err := CompareBench(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}
