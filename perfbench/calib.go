package main

import (
	"runtime"
	"time"
)

// A shared host does not give a process a CPU of constant speed. On the
// 2-vCPU virtual machine this benchmark was written on, a fixed compute
// kernel ran at one of two speeds, the slow one about 1.9 times slower,
// each vCPU switching between them on its own every second or so as
// other guests came and went on its physical core; identical catalog
// passes (same seeds, same upsets replayed) took from 2.5 to 4.5
// CPU-seconds. CPU time leaves out waiting for a CPU, not a slower one.
//
// perfbench therefore measures the speed it is given while it works: a
// probe goroutine on a thread of its own runs a fixed reference kernel
// every probeEvery, throughout each measured window, and times each call
// in thread CPU time. The window's times (its CPU time less the probe's
// own, and its wall time) are then reported at a reference speed: scaled
// by refKernelNominal over the kernel's mean time in the window. The
// kernel is plain Go and calls no neutronsim code, so no change to the
// system moves it; a change that makes the system faster lowers the
// scaled time exactly as it lowers the measured one.

// refKernelNominal defines the reference speed: the speed at which one
// kernel call takes this long. It is a fixed convention, near the
// kernel's mean time on the machine this benchmark was written on, so
// that scaled times read close to measured ones.
const refKernelNominal = 600 * time.Microsecond

// probeEvery is the probe's sampling period. Each sample costs one
// kernel call, a few percent of one CPU.
const probeEvery = 20 * time.Millisecond

const (
	refN     = 16 // feature maps are refN x refN
	refChIn  = 8  // input channels
	refChOut = 8  // output channels
)

// refBuf is the reference kernel's working set, allocated once so that
// sampling allocates nothing inside a measured window.
type refBuf struct {
	in  [refChIn * refN * refN]float64
	w   [refChOut * refChIn * 9]float64
	out [refChOut * refN * refN]float64
}

var probeBuf = new(refBuf)

// refKernel is a 3x3 convolution layer with edge clamping and a ReLU,
// the loop nest that dominates the catalog's fault replay. Its speed
// follows the host's speed about as that replay's and the server's
// Monte Carlo do: timed next to them on a busy shared host, it slowed
// 0.8 to 1.2 times as much (in log terms) as either, where a dense
// matrix product and a stencil sweep slowed up to eight times as much
// as the replay.
func refKernel(buf *refBuf) {
	const n = refN
	for i := range buf.in {
		buf.in[i] = float64(i%13) * 0.07
	}
	for i := range buf.w {
		buf.w[i] = float64(i%7)*0.05 - 0.15
	}
	for co := 0; co < refChOut; co++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				sum := 0.0
				for ci := 0; ci < refChIn; ci++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							wi := ((co*refChIn+ci)*3+(dy+1))*3 + (dx + 1)
							sum += buf.w[wi] * buf.in[(ci*n+clampEdge(y+dy, n))*n+clampEdge(x+dx, n)]
						}
					}
				}
				buf.out[(co*n+y)*n+x] = max(sum, 0)
			}
		}
	}
}

func clampEdge(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// probe samples the CPU's speed in the background; see startProbe.
type probe struct {
	stop chan struct{}
	done chan probeResult
}

// probeResult is what a probe measured over its window.
type probeResult struct {
	kernels   int
	kernelCPU time.Duration // thread CPU time of the kernel calls
	cpu       time.Duration // the probe thread's whole CPU time
}

// startProbe starts sampling. Every probe must be stopped.
func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan probeResult, 1)}
	started := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var res probeResult
		t0 := threadCPU()
		close(started)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				res.cpu = threadCPU() - t0
				p.done <- res
				return
			case <-tick.C:
			}
			k0 := threadCPU()
			refKernel(probeBuf)
			res.kernelCPU += threadCPU() - k0
			res.kernels++
		}
	}()
	<-started
	return p
}

// end stops the probe and returns what it measured.
func (p *probe) end() probeResult {
	close(p.stop)
	return <-p.done
}

// speedTally pools probe results over the windows of one measured
// quantity.
type speedTally struct{ probeResult }

func (t *speedTally) add(r probeResult) {
	t.kernels += r.kernels
	t.kernelCPU += r.kernelCPU
	t.cpu += r.cpu
}

// scale is the factor that takes a CPU or wall time measured in the
// tallied windows to the reference speed: below 1 when the host ran
// slow. It is 1 when no sample was taken.
func (t *speedTally) scale() float64 {
	if t.kernels == 0 {
		return 1
	}
	return float64(time.Duration(t.kernels)*refKernelNominal) / float64(t.kernelCPU)
}

// measureCPU runs f under a probe and returns the process CPU time f
// took, the probe's excluded, the wall time, and the probe's result.
func measureCPU(f func()) (cpu, wall time.Duration, r probeResult) {
	p := startProbe()
	c0, t0 := processCPU(), time.Now()
	f()
	wall = time.Since(t0)
	c1 := processCPU()
	r = p.end()
	return c1 - c0 - r.cpu, wall, r
}
