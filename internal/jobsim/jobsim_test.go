package jobsim

import (
	"math"
	"testing"

	"neutronsim/internal/checkpoint"
	"neutronsim/internal/rng"
)

func baseParams() Params {
	return Params{
		MTBFSeconds:       6 * 3600,
		IntervalSeconds:   1800,
		CheckpointSeconds: 60,
		RestartSeconds:    300,
		HorizonSeconds:    60 * 86400,
	}
}

func TestValidate(t *testing.T) {
	good := baseParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.MTBFSeconds = 0 },
		func(p *Params) { p.IntervalSeconds = 0 },
		func(p *Params) { p.CheckpointSeconds = -1 },
		func(p *Params) { p.RestartSeconds = -1 },
		func(p *Params) { p.HorizonSeconds = p.IntervalSeconds },
	}
	for i, mutate := range bad {
		p := baseParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := Simulate(baseParams(), nil); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestGoodputMatchesAnalyticModel(t *testing.T) {
	// The measured goodput of a long run must agree with 1 - Waste.
	p := baseParams()
	r, err := Simulate(p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	predicted := PredictedGoodput(p)
	if math.Abs(r.Goodput-predicted) > 0.02 {
		t.Errorf("goodput %v vs analytic %v", r.Goodput, predicted)
	}
	if r.Failures == 0 || r.Checkpoints == 0 {
		t.Errorf("degenerate run: %+v", r)
	}
}

func TestNoFailuresPerfectMachine(t *testing.T) {
	p := baseParams()
	p.MTBFSeconds = 1e12 // effectively failure-free
	r, err := Simulate(p, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Errorf("%d failures on a perfect machine", r.Failures)
	}
	// Goodput limited only by checkpoint overhead τ/(τ+δ).
	want := p.IntervalSeconds / (p.IntervalSeconds + p.CheckpointSeconds)
	if math.Abs(r.Goodput-want) > 0.01 {
		t.Errorf("goodput %v, want ~%v", r.Goodput, want)
	}
}

func TestUnreliableMachineLosesThroughput(t *testing.T) {
	// The paper's productivity claim, quantified: cutting MTBF 10x visibly
	// cuts goodput.
	reliable := baseParams()
	flaky := baseParams()
	flaky.MTBFSeconds /= 10
	r1, err := Simulate(reliable, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(flaky, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Goodput >= r1.Goodput {
		t.Errorf("flaky machine goodput %v >= reliable %v", r2.Goodput, r1.Goodput)
	}
	if r2.LostSeconds <= r1.LostSeconds {
		t.Error("flaky machine should lose more work")
	}
}

func TestEmpiricalOptimumNearDaly(t *testing.T) {
	p := baseParams()
	p.HorizonSeconds = 120 * 86400
	daly, err := checkpoint.DalyInterval(p.CheckpointSeconds, p.MTBFSeconds)
	if err != nil {
		t.Fatal(err)
	}
	intervals := []float64{daly / 8, daly / 4, daly / 2, daly, daly * 2, daly * 4, daly * 8}
	s := rng.New(5)
	best, bestGoodput := 0.0, math.Inf(-1)
	for _, tau := range intervals {
		p.IntervalSeconds = tau
		r, err := Simulate(p, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Goodput > bestGoodput {
			best, bestGoodput = tau, r.Goodput
		}
	}
	// The empirical optimum should land within a factor 2 of Daly (the
	// curve is flat near the optimum, so neighbors are admissible).
	if best < daly/2-1 || best > daly*2+1 {
		t.Errorf("empirical best interval %v, Daly %v", best, daly)
	}
}

func TestDeterminism(t *testing.T) {
	r1, err := Simulate(baseParams(), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(baseParams(), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("simulation not reproducible")
	}
}

func TestAccountingBalances(t *testing.T) {
	p := baseParams()
	r, err := Simulate(p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Useful + lost work can never exceed the horizon.
	if r.UsefulSeconds+r.LostSeconds > p.HorizonSeconds {
		t.Errorf("work exceeds wall clock: useful %v + lost %v > %v",
			r.UsefulSeconds, r.LostSeconds, p.HorizonSeconds)
	}
	if r.UsefulSeconds <= 0 {
		t.Error("no useful work")
	}
}
