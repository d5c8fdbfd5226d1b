package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// timerSlack is how late Linux's default 50 µs timer slack lets a
// nanosleep return. sleepUntil wakes that much early and yields out the
// rest.
const timerSlack = 50 * time.Microsecond

// sleepUntil waits until t. The Go runtime's timers fire on roughly a
// millisecond grid here, which would make the open-loop generator late
// by half a millisecond on average at the rates it offers; a blocking
// nanosleep on the goroutine's thread is accurate to tens of µs.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU returns the CPU time the process's threads have run so far,
// user and system, garbage collection included. It excludes the time the
// threads waited for a CPU, and on a virtual machine with paravirtual
// steal accounting the time the hypervisor ran another guest instead:
// unlike wall time, it does not grow when the host is busy.
func processCPU() time.Duration { return clockCPU(clockProcessCPUTimeID) }

func clockCPU(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling thread has run so far, with
// the same exclusions as processCPU. Callers lock their goroutine to its
// thread.
func threadCPU() time.Duration { return clockCPU(clockThreadCPUTimeID) }
