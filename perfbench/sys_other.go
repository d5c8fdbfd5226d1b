//go:build !linux

package main

import "time"

// sleepUntil waits until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// processCPU and threadCPU are only available on Linux.
func processCPU() time.Duration {
	panic("perfbench measures CPU time with clock_gettime and runs on Linux only")
}

func threadCPU() time.Duration { return processCPU() }
