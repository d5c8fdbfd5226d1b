package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neutronsim/internal/device"
	"neutronsim/internal/plan"
	"neutronsim/internal/telemetry"
	"neutronsim/internal/telemetry/trace"
)

func TestAssessManyMatchesSequential(t *testing.T) {
	devices := []*device.Device{device.K20(), device.TitanX()}
	b := Budget{FastSeconds: 120, ThermalSeconds: 480, Boost: 50}
	parallel, err := AssessMany(devices, b, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range devices {
		seq, err := Assess(d, nil, b, DeviceSeed(7, i))
		if err != nil {
			t.Fatal(err)
		}
		p := parallel[i]
		if p.FastAvg.SDC != seq.FastAvg.SDC || p.ThermalAvg.DUE != seq.ThermalAvg.DUE {
			t.Errorf("%s: parallel result differs from sequential", d.Name)
		}
	}
}

func TestAssessManyValidation(t *testing.T) {
	if _, err := AssessMany(nil, Budget{}, 1, 2); err == nil {
		t.Error("empty device list accepted")
	}
}

func TestAssessManyPropagatesErrors(t *testing.T) {
	bad := device.K20()
	bad.Name = "" // fails validation inside the campaign
	res, err := AssessMany([]*device.Device{device.K20(), bad},
		Budget{FastSeconds: 60, ThermalSeconds: 60, Boost: 50}, 1, 2)
	if err == nil {
		t.Fatal("invalid device did not surface an error")
	}
	if len(res) != 2 || res[0] == nil {
		t.Error("partial results dropped: healthy device's assessment missing")
	}
	if res != nil && res[1] != nil {
		t.Error("failed device produced a non-nil assessment")
	}
}

func TestAssessManyJoinsAllErrors(t *testing.T) {
	badA := device.K20()
	badA.Name = ""
	badB := device.TitanX()
	badB.Name = ""
	badB.DieAreaCm2 = -1
	_, err := AssessMany([]*device.Device{badA, device.K20(), badB},
		Budget{FastSeconds: 60, ThermalSeconds: 60, Boost: 50}, 1, 3)
	if err == nil {
		t.Fatal("invalid devices did not surface an error")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error %T does not unwrap to a list", err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Errorf("joined %d errors, want 2: %v", n, err)
	}
}

func TestAssessManyDefaultParallelism(t *testing.T) {
	devices := []*device.Device{device.TitanX()}
	res, err := AssessMany(devices, Budget{FastSeconds: 120, ThermalSeconds: 300, Boost: 50}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil {
		t.Error("missing result")
	}
}

// TestAssessConcurrencyInvariance is the campaign-level conformance
// suite: how many campaigns of an assessment run at once (Budget.Shards)
// only changes scheduling, never the assessment, the error or what is
// left running after a cancellation.
func TestAssessConcurrencyInvariance(t *testing.T) {
	t.Run("catalog", testCatalogInvariance)
	t.Run("earliest-failure", testEarliestFailure)
	t.Run("cancellation", testCancellation)
}

// testCatalogInvariance requires every catalog device's Assessment to be
// identical for any pool width, exact and importance-sampled.
func testCatalogInvariance(t *testing.T) {
	for _, bias := range []*plan.Bias{nil, {Thermal: 10}} {
		for _, d := range device.All() {
			b := Budget{FastSeconds: 20, ThermalSeconds: 80, Boost: 50, Bias: bias, Shards: 1}
			want, err := Assess(d, nil, b, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 7, runtime.GOMAXPROCS(0)} {
				b.Shards = shards
				got, err := Assess(d, nil, b, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s bias %v: Shards %d differs from the serial assessment", d.Name, bias, shards)
				}
			}
		}
	}
}

// testEarliestFailure checks that a failing assessment reports the
// error a serial run would: that of the first failed campaign in serial
// order, whatever the pool width.
func testEarliestFailure(t *testing.T) {
	for _, wls := range [][]string{{"MxM", "nope"}, {"nope", "MxM"}, {"MxM", "LUD", "nope", "alsonope"}} {
		b := Budget{FastSeconds: 20, ThermalSeconds: 80, Boost: 50, Shards: 1}
		_, serial := Assess(device.K20(), wls, b, 3)
		if serial == nil {
			t.Fatalf("%v: unknown workload accepted", wls)
		}
		for _, shards := range []int{2, 7, 0} {
			b.Shards = shards
			if _, err := Assess(device.K20(), wls, b, 3); err == nil || err.Error() != serial.Error() {
				t.Errorf("%v Shards %d: error %v, want %v", wls, shards, err, serial)
			}
		}
	}
}

// testCancellation checks that a canceled assessment reports the
// earliest campaign's cancellation and returns only once every campaign
// has stopped: its goroutines are gone and none of them reported
// progress after the return.
func testCancellation(t *testing.T) {
	wls := []string{"MxM", "LUD", "LavaMD"}
	base := runtime.NumGoroutine()
	for _, shards := range []int{1, 2, 7, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := AssessContext(ctx, device.K20(), wls, Budget{Shards: shards}, 1)
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "core: K20/MxM ChipIR: ") {
			t.Errorf("Shards %d, canceled before the start: error %v, want the first campaign's cancellation", shards, err)
		}
		waitForGoroutines(t, base)

		var returned, late atomic.Bool
		ctx, cancel = context.WithCancel(context.Background())
		ctx = telemetry.ContextWithProgress(ctx, func(telemetry.ProgressUpdate) {
			if returned.Load() {
				late.Store(true)
			}
			cancel()
		})
		b := QuickBudget()
		b.Shards = shards
		_, err = AssessContext(ctx, device.K20(), wls, b, 1)
		returned.Store(true)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Shards %d, canceled mid-flight: error %v, want a cancellation", shards, err)
		}
		waitForGoroutines(t, base)
		if late.Load() {
			t.Errorf("Shards %d: a campaign reported progress after the assessment returned", shards)
		}
	}
}

// waitForGoroutines waits until no more than base goroutines run: the
// pool's workers may still be exiting when the call that waited for them
// returns. It fails the test if that takes longer than a few seconds.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the assessment returned, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAssessCampaignSpansNamed checks that every beam.campaign span of a
// concurrent assessment names its device, workload and beam, so a trace
// identifies campaigns without relying on their start order.
func TestAssessCampaignSpansNamed(t *testing.T) {
	tr, root := trace.New("test", nil)
	ctx := trace.NewContext(context.Background(), root)
	b := Budget{FastSeconds: 20, ThermalSeconds: 80, Boost: 50}
	if _, err := AssessContext(ctx, device.K20(), []string{"MxM", "LUD"}, b, 1); err != nil {
		t.Fatal(err)
	}
	root.End()
	got := map[string]bool{}
	var walk func(s *trace.SpanSnapshot)
	walk = func(s *trace.SpanSnapshot) {
		if s.Name == "beam.campaign" {
			attrs := map[string]string{}
			for _, a := range s.Attrs {
				attrs[a.Key] = a.Value
			}
			got[attrs["device"]+"/"+attrs["workload"]+"/"+attrs["beam"]] = true
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Snapshot().Root)
	want := map[string]bool{"K20/MxM/ChipIR": true, "K20/MxM/ROTAX": true, "K20/LUD/ChipIR": true, "K20/LUD/ROTAX": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("campaign spans %v, want %v", got, want)
	}
}
