package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"neutronsim/internal/device"
	"neutronsim/internal/telemetry"
)

// forEach calls fn(i) once for every i in [0, n) on a bounded pool of at
// most workers goroutines (<= 0 means GOMAXPROCS). Indices are handed
// out in ascending order, so a call never starts before every lower
// index has started. One worker is a plain loop on the caller's
// goroutine. forEach returns when every call has returned; fn must keep
// what it writes in per-index slots.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// AssessMany runs Assess for several devices concurrently with a bounded
// worker pool. Each device gets its own deterministic seed derived from
// the base seed and its index, so the results are identical to running the
// assessments sequentially — parallelism only changes wall-clock time.
//
// On failure the returned error joins every per-device error (in device
// order), and the result slice is still returned with the successful
// assessments filled in and nil entries for the failed devices, so callers
// can keep partial campaigns.
func AssessMany(devices []*device.Device, b Budget, seed uint64, parallelism int) ([]*Assessment, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: no devices")
	}
	ctx, span := telemetry.StartSpan(context.Background(), "core.assess_many")
	defer span.End()
	busy := telemetry.Default.Gauge("core.workers_busy")
	assessed := telemetry.Default.Counter("core.devices_assessed")
	results := make([]*Assessment, len(devices))
	errs := make([]error, len(devices))
	forEach(len(devices), parallelism, func(i int) {
		busy.Add(1)
		a, err := assess(ctx, devices[i], nil, b, DeviceSeed(seed, i))
		busy.Add(-1)
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", devices[i].Name, err)
			return
		}
		results[i] = a
		assessed.Inc()
	})
	return results, errors.Join(errs...)
}

// DeviceSeed derives the per-device campaign seed used by AssessMany, so
// sequential callers can reproduce individual entries.
func DeviceSeed(base uint64, index int) uint64 {
	return base + uint64(index)*1000
}
