package faultinject

import (
	"errors"
	"math"
	"testing"

	"neutronsim/internal/device"
	"neutronsim/internal/rng"
	"neutronsim/internal/workload"
)

// replayFromZero is the replay Run used before checkpoints: Reset the
// workload, then replay every step from 0 under the sorted data faults.
// It is the oracle the checkpointed Run must match draw for draw.
func replayFromZero(inj *Injector, seed uint64, faults []Timed, s *rng.Stream) Result {
	var data []Timed
	for _, f := range faults {
		if f.Fault.Target == device.TargetControl {
			if s.Bernoulli(inj.cfg.ControlDUEProb) {
				return Result{Outcome: OutcomeDUE}
			}
			continue
		}
		data = append(data, f)
	}
	if len(data) == 0 {
		return Result{Outcome: OutcomeMasked}
	}
	for i := 1; i < len(data); i++ {
		for j := i; j > 0 && data[j].Step < data[j-1].Step; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
	inj.w.Reset(seed)
	steps := inj.w.Steps()
	flipped, next := 0, 0
	for i := 0; i < steps; i++ {
		for next < len(data) && clampStep(data[next].Step, steps) == i {
			flipped += inj.apply(data[next].Fault, s)
			next++
		}
		if err := inj.w.Step(i); err != nil {
			return Result{Outcome: OutcomeDUE, Err: err, FlippedBits: flipped}
		}
	}
	for ; next < len(data); next++ {
		flipped += inj.apply(data[next].Fault, s)
	}
	out := inj.w.AppendOutput(nil)
	for i := range out {
		if out[i] != inj.golden[i] {
			return Result{Outcome: OutcomeSDC, FlippedBits: flipped}
		}
	}
	return Result{Outcome: OutcomeMasked, FlippedBits: flipped}
}

// randomFaults draws 1–4 faults: a mix of control and data targets,
// single- and multi-bit, timed anywhere from before step 0 to past the
// last step.
func randomFaults(g *rng.Stream, steps int) []Timed {
	targets := []device.Target{device.TargetMemory, device.TargetDatapath, device.TargetConfig, device.TargetControl}
	faults := make([]Timed, 1+g.Intn(4))
	for i := range faults {
		step := g.Intn(steps)
		switch g.Intn(8) {
		case 0:
			step = -1 - g.Intn(5)
		case 1:
			step = steps + g.Intn(10)
		}
		faults[i] = Timed{Step: step, Fault: device.Fault{
			Target: targets[g.Intn(len(targets))],
			Bits:   g.Intn(4), // 0 is applied as 1
		}}
	}
	return faults
}

func TestRunMatchesReplayFromZero(t *testing.T) {
	const seed, sets = 42, 300
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			inj := newInjector(t, name)
			g := rng.New(99)
			outcomes := map[Outcome]int{}
			for k := 0; k < sets; k++ {
				faults := randomFaults(g, inj.steps)
				streamSeed := g.Uint64()
				s1, s2 := rng.New(streamSeed), rng.New(streamSeed)
				got := inj.Run(faults, s1)
				want := replayFromZero(inj, seed, faults, s2)
				if got.Outcome != want.Outcome || got.FlippedBits != want.FlippedBits || !errors.Is(got.Err, want.Err) {
					t.Fatalf("set %d %+v: Run = %+v, replay from 0 = %+v", k, faults, got, want)
				}
				if a, b := s1.Uint64(), s2.Uint64(); a != b {
					t.Fatalf("set %d %+v: stream positions diverged", k, faults)
				}
				outcomes[got.Outcome]++
			}
			t.Logf("%s outcomes over %d fault sets: %v", name, sets, outcomes)
		})
	}
}

// corrupt stands in for a faulty replay: it perturbs every injectable
// word and runs the workload to the end, so every buffer a step writes,
// injectable or not, ends up off its golden contents.
func corrupt(w workload.Workload) {
	for _, r := range w.Regions() {
		for i := range r.F64 {
			r.F64[i] = math.Float64frombits(math.Float64bits(r.F64[i]) ^ 1<<51)
		}
		for i := range r.U32 {
			r.U32[i] ^= 1
		}
	}
	for i := 0; i < w.Steps(); i++ {
		_ = w.Step(i) // a corrupted run may error; the state stays corrupt
	}
}

func sameState(a, b []workload.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !sameBits(a[r], b[r]) {
			return false
		}
	}
	return true
}

func TestCheckpointRestoreAudit(t *testing.T) {
	const seed = 42
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			fresh, _ := workload.New(name)
			fresh.Reset(seed)
			for i := 0; i < fresh.Steps(); i++ {
				if err := fresh.Step(i); err != nil {
					t.Fatal(err)
				}
			}
			wantOut := fresh.AppendOutput(nil)
			inj := newInjector(t, name)
			w := inj.w
			for i := 0; i <= inj.steps; i++ {
				corrupt(w)
				if sameState(w.State(), fresh.State()) {
					t.Fatal("corruption left the state golden; the audit would prove nothing")
				}
				inj.restore(i)
				for j := i; j < inj.steps; j++ {
					if err := w.Step(j); err != nil {
						t.Fatalf("restored at %d: step %d: %v", i, j, err)
					}
				}
				got := w.AppendOutput(nil)
				for k := range wantOut {
					if math.Float64bits(got[k]) != math.Float64bits(wantOut[k]) {
						t.Fatalf("restored at %d: output %d = %v, fresh run %v", i, k, got[k], wantOut[k])
					}
				}
				for r, st := range w.State() {
					if !sameBits(st, fresh.State()[r]) {
						t.Fatalf("restored at %d: state %q differs from a fresh run", i, st.Name)
					}
				}
			}
		})
	}
}

// checkpointBytes sums the distinct buffer copies an injector holds.
func checkpointBytes(inj *Injector) int {
	seen := map[any]bool{}
	total := 0
	for _, ck := range inj.checkpoints {
		for _, r := range ck {
			switch {
			case len(r.F64) > 0 && !seen[&r.F64[0]]:
				seen[&r.F64[0]] = true
				total += 8 * len(r.F64)
			case len(r.U32) > 0 && !seen[&r.U32[0]]:
				seen[&r.U32[0]] = true
				total += 4 * len(r.U32)
			}
		}
	}
	return total
}

func TestCheckpointFootprint(t *testing.T) {
	const budget = 1 << 20
	for _, name := range workload.Names() {
		inj := newInjector(t, name)
		// An unchanged buffer shares the previous boundary's copy.
		for i := 1; i <= inj.steps; i++ {
			for r, cur := range inj.checkpoints[i] {
				prev := inj.checkpoints[i-1][r]
				if sameBits(cur, prev) && !sameBacking(cur, prev) {
					t.Errorf("%s: %q unchanged across step %d but stored twice", name, cur.Name, i-1)
				}
			}
		}
		n := checkpointBytes(inj)
		t.Logf("%s: %d checkpoints, %d KiB", name, len(inj.checkpoints), n>>10)
		if n > budget {
			t.Errorf("%s holds %d checkpoint bytes, budget %d", name, n, budget)
		}
	}
}

func sameBacking(a, b workload.Region) bool {
	if len(a.F64) > 0 {
		return len(b.F64) > 0 && &a.F64[0] == &b.F64[0]
	}
	return len(a.U32) > 0 && len(b.U32) > 0 && &a.U32[0] == &b.U32[0]
}

func TestNewInjectorRejectsStepless(t *testing.T) {
	if _, err := NewInjector(stepless{workload.NewMxM(2)}, 1, Config{}); err == nil {
		t.Error("workload with no steps accepted")
	}
}

// stepless is a workload that reports no steps.
type stepless struct{ *workload.MxM }

func (stepless) Steps() int { return 0 }

// BenchmarkReplay times one upset replay per kernel: a fixed-seed,
// uniformly timed single-bit memory fault, as a beam campaign draws it.
// Replays must not allocate.
func BenchmarkReplay(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			inj := newInjector(b, name)
			s := rng.New(1)
			faults := make([]Timed, 1)
			replay := func() {
				faults[0] = Timed{Step: s.Intn(inj.steps), Fault: dataFault(1)}
				inj.Run(faults, s)
			}
			replay() // grow the reused buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
		})
	}
}
