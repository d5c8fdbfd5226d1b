// Package faultinject turns device-level radiation faults into workload
// outcomes, applying the beam-experiment classification of the paper
// (§III-C): an output mismatch against a fault-free golden copy is an SDC;
// an application that dies or gets stuck is a DUE; anything else is masked.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"neutronsim/internal/device"
	"neutronsim/internal/rng"
	"neutronsim/internal/workload"
)

// Outcome classifies the effect of injected faults on one run.
type Outcome int

// Outcomes.
const (
	OutcomeMasked Outcome = iota + 1
	OutcomeSDC
	OutcomeDUE
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeMasked:
		return "masked"
	case OutcomeSDC:
		return "SDC"
	case OutcomeDUE:
		return "DUE"
	default:
		return "unknown"
	}
}

// Timed is a device fault scheduled before a workload step.
type Timed struct {
	Step  int
	Fault device.Fault
}

// Config tunes the injector.
type Config struct {
	// ControlDUEProb is the probability that a control-logic fault
	// actually brings the run down (the rest are architecturally masked).
	// It applies identically to both neutron bands, preserving the
	// calibrated band ratios. Default 0.6.
	ControlDUEProb float64
}

func (c Config) withDefaults() Config {
	if c.ControlDUEProb <= 0 {
		c.ControlDUEProb = 0.6
	}
	return c
}

// Result is the classified outcome of one injected run.
type Result struct {
	Outcome Outcome
	// Err is the step error for DUEs caused by the workload itself
	// (hang / corrupt state); nil for control-logic DUEs.
	Err error
	// FlippedBits is the number of state bits actually flipped.
	FlippedBits int
}

// Injector caches a workload's golden output and per-step checkpoints and
// repeatedly replays the workload under injected faults. It is not safe
// for concurrent use; use one Injector per goroutine.
type Injector struct {
	w      workload.Workload
	cfg    Config
	steps  int
	golden []float64
	// checkpoints[i] is the golden State() before step i, and
	// checkpoints[steps] the state after the last step. A buffer whose
	// contents did not change since the previous boundary shares that
	// boundary's copy, so read-only weights and graphs are stored once
	// (DESIGN.md §18).
	checkpoints [][]workload.Region
	// out is the reused output buffer a replay compares against golden.
	out []float64
	// scratch is the reusable data-fault buffer for Run; keeping it on the
	// injector makes repeated injections allocation-free once its capacity
	// has grown to the campaign's fault-count high-water mark.
	scratch []Timed
}

// NewInjector runs the workload once cleanly to capture the golden output
// and the golden state before every step. The workload must have at
// least one step.
func NewInjector(w workload.Workload, seed uint64, cfg Config) (*Injector, error) {
	if w == nil {
		return nil, errors.New("faultinject: nil workload")
	}
	w.Reset(seed)
	steps := w.Steps()
	if steps < 1 {
		return nil, fmt.Errorf("faultinject: workload %s has %d steps, need at least 1", w.Name(), steps)
	}
	inj := &Injector{w: w, cfg: cfg.withDefaults(), steps: steps}
	inj.checkpoints = make([][]workload.Region, steps+1)
	var prev []workload.Region
	for i := 0; i < steps; i++ {
		prev = checkpoint(w.State(), prev)
		inj.checkpoints[i] = prev
		if err := w.Step(i); err != nil {
			return nil, fmt.Errorf("faultinject: golden run failed at step %d: %w", i, err)
		}
	}
	inj.checkpoints[steps] = checkpoint(w.State(), prev)
	inj.golden = w.AppendOutput(nil)
	inj.out = make([]float64, 0, len(inj.golden))
	return inj, nil
}

// checkpoint copies the live state, sharing prev's copy of every buffer
// whose contents are bit-identical to it.
func checkpoint(live, prev []workload.Region) []workload.Region {
	ck := make([]workload.Region, len(live))
	for r, l := range live {
		if prev != nil && sameBits(l, prev[r]) {
			ck[r] = prev[r]
			continue
		}
		ck[r] = workload.Region{Name: l.Name, F64: slices.Clone(l.F64), U32: slices.Clone(l.U32)}
	}
	return ck
}

// sameBits reports whether two buffers hold bit-identical words.
func sameBits(a, b workload.Region) bool {
	if len(a.F64) != len(b.F64) || !slices.Equal(a.U32, b.U32) {
		return false
	}
	for i, v := range a.F64 {
		if math.Float64bits(v) != math.Float64bits(b.F64[i]) {
			return false
		}
	}
	return true
}

// restore copies checkpoint i into the workload's live buffers, leaving
// it exactly as the golden run was before step i.
func (inj *Injector) restore(i int) {
	for r, l := range inj.w.State() {
		ck := inj.checkpoints[i][r]
		copy(l.F64, ck.F64)
		copy(l.U32, ck.U32)
	}
}

// Golden returns a copy of the fault-free output.
func (inj *Injector) Golden() []float64 {
	return append([]float64(nil), inj.golden...)
}

// Run replays the workload, injecting each fault before its step, and
// classifies the outcome. The replay resumes from the golden checkpoint
// before the first data fault's step: every earlier step is fault-free
// and would reproduce that checkpoint exactly.
func (inj *Injector) Run(faults []Timed, s *rng.Stream) Result {
	// Control-logic faults act at the architecture level, independent of
	// the program state: each takes the run down with ControlDUEProb.
	dataFaults := inj.scratch[:0]
	for _, f := range faults {
		if f.Fault.Target == device.TargetControl {
			if s.Bernoulli(inj.cfg.ControlDUEProb) {
				return Result{Outcome: OutcomeDUE}
			}
			continue // masked control fault
		}
		dataFaults = append(dataFaults, f)
	}
	inj.scratch = dataFaults
	if len(dataFaults) == 0 {
		return Result{Outcome: OutcomeMasked}
	}
	// Fault lists are tiny (λ is tuned toward ~1 fault per run), so a
	// stable insertion sort beats sort.SliceStable and allocates nothing.
	for i := 1; i < len(dataFaults); i++ {
		for j := i; j > 0 && dataFaults[j].Step < dataFaults[j-1].Step; j-- {
			dataFaults[j], dataFaults[j-1] = dataFaults[j-1], dataFaults[j]
		}
	}
	// clampStep maps every fault into [0, steps-1], so the loop applies
	// all of them.
	steps := inj.steps
	start := clampStep(dataFaults[0].Step, steps)
	inj.restore(start)
	flipped := 0
	next := 0
	for i := start; i < steps; i++ {
		for next < len(dataFaults) && clampStep(dataFaults[next].Step, steps) == i {
			flipped += inj.apply(dataFaults[next].Fault, s)
			next++
		}
		if err := inj.w.Step(i); err != nil {
			return Result{Outcome: OutcomeDUE, Err: err, FlippedBits: flipped}
		}
	}
	inj.out = inj.w.AppendOutput(inj.out[:0])
	if len(inj.out) != len(inj.golden) {
		return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
	}
	for i, v := range inj.out {
		if v != inj.golden[i] {
			return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
		}
	}
	return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
}

func clampStep(step, steps int) int {
	if step < 0 {
		return 0
	}
	if step >= steps {
		return steps - 1
	}
	return step
}

// apply flips the fault's bit count into the live workload state and
// returns the number of bits flipped. Memory faults prefer large storage
// regions; datapath faults are uniform over all words.
func (inj *Injector) apply(f device.Fault, s *rng.Stream) int {
	regions := inj.w.Regions()
	if len(regions) == 0 {
		return 0
	}
	total := workload.TotalWords(regions)
	if total == 0 {
		return 0
	}
	bits := f.Bits
	if bits < 1 {
		bits = 1
	}
	flipped := 0
	// Pick the word for the first bit; MBU bits land in adjacent words.
	word := s.Intn(total)
	for b := 0; b < bits; b++ {
		idx := word + b
		if idx >= total {
			idx = total - 1 - (idx - total)
			if idx < 0 {
				idx = 0
			}
		}
		r, off := locate(regions, idx)
		if r == nil {
			continue
		}
		if err := r.FlipBit(off, s.Intn(r.BitsPerWord())); err == nil {
			flipped++
		}
	}
	return flipped
}

// locate maps a global word index onto its region and local offset.
func locate(regions []workload.Region, idx int) (*workload.Region, int) {
	for i := range regions {
		w := regions[i].Words()
		if idx < w {
			return &regions[i], idx
		}
		idx -= w
	}
	return nil, 0
}

// AVF is the architecture vulnerability profile measured by single-fault
// injection: the fraction of injected faults producing each outcome.
type AVF struct {
	Runs   int
	Masked int
	SDC    int
	DUE    int
}

// SDCFraction returns SDC/Runs.
func (a AVF) SDCFraction() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.SDC) / float64(a.Runs)
}

// DUEFraction returns DUE/Runs.
func (a AVF) DUEFraction() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.DUE) / float64(a.Runs)
}

// MaskedFraction returns Masked/Runs.
func (a AVF) MaskedFraction() float64 {
	if a.Runs == 0 {
		return 0
	}
	return float64(a.Masked) / float64(a.Runs)
}

// MeasureAVF injects n independent single faults (uniformly timed data
// faults of the given template) and tallies outcomes. It is the
// software-fault-injection companion the paper's related work references
// (AVF/PVF studies).
func MeasureAVF(inj *Injector, template device.Fault, n int, s *rng.Stream) (AVF, error) {
	if n <= 0 {
		return AVF{}, errors.New("faultinject: run count must be positive")
	}
	steps := inj.w.Steps()
	avf := AVF{Runs: n}
	for i := 0; i < n; i++ {
		f := Timed{Step: s.Intn(steps), Fault: template}
		switch inj.Run([]Timed{f}, s).Outcome {
		case OutcomeSDC:
			avf.SDC++
		case OutcomeDUE:
			avf.DUE++
		default:
			avf.Masked++
		}
	}
	return avf, nil
}
