package core

import (
	"context"
	"errors"
	"fmt"

	"neutronsim/internal/device"
	"neutronsim/internal/engine"
	"neutronsim/internal/telemetry"
)

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
	engine.ForEach(len(devices), parallelism, func(i int) {
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
