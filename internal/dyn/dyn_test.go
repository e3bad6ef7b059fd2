package dyn

import (
	"math"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
)

func fixture() (*model.Instance, sched.Policy) {
	in := model.New(6, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			in.P[i][j] = 0.25 + 0.1*float64(i+j)/9
		}
	}
	in.Prec.MustEdge(0, 2)
	in.Prec.MustEdge(1, 3)
	in.Prec.MustEdge(2, 4)
	pol := &sched.Oblivious{
		M:     3,
		Steps: []sched.Assignment{{0, 1, 5}, {0, 1, 5}},
		Tail:  &sched.TopoRoundRobin{M: 3, Order: []int{0, 1, 2, 3, 4, 5}},
	}
	return in, pol
}

func TestScenarioValidation(t *testing.T) {
	in, _ := fixture()
	cases := map[string]*Scenario{
		"job range":       New(in).ArriveAt(9, 3),
		"negative step":   New(in).ArriveAt(0, -1),
		"machine range":   New(in).Breakdown(7, 0, 4),
		"empty interval":  New(in).Breakdown(0, 5, 5),
		"regime machine":  New(in).AddRegime(Regime{Machine: -2}),
		"regime prob":     New(in).AddRegime(Regime{Machine: 0, GoodToBad: 1.5}),
		"regime severity": New(in).AddRegime(Regime{Machine: 0, Severity: -0.1}),
	}
	for name, sc := range cases {
		if sc.Validate() == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
	if err := New(in).ArriveAt(0, 3).Breakdown(1, 2, 5).Burst(-1, 0.1, 0.9, 0.5).Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestBurstRegimeStationary(t *testing.T) {
	r := BurstRegime(0, 0.2, 0.9, 0.3)
	// Stationary bad probability gb/(gb+bg) must equal p0; persistence
	// 1-(gb+bg) must equal alpha.
	gotP0 := r.GoodToBad / (r.GoodToBad + r.BadToGood)
	if math.Abs(gotP0-0.2) > 1e-12 {
		t.Errorf("stationary bad prob %v, want 0.2", gotP0)
	}
	if alpha := 1 - (r.GoodToBad + r.BadToGood); math.Abs(alpha-0.9) > 1e-12 {
		t.Errorf("persistence %v, want 0.9", alpha)
	}
}

// opaquePolicy hides the concrete policy type so sim's estimator
// cannot compile it — pinning the comparison to the generic step
// engine, the walk dynamic scenarios run on.
type opaquePolicy struct{ pol sched.Policy }

func (o opaquePolicy) Assign(st *sched.State) sched.Assignment { return o.pol.Assign(st) }

// A scenario whose only event lies beyond the horizon must force the
// dynamic walk (it is not Static) yet reproduce the generic engine's
// completion draws bit for bit.
func TestNoOpEventParity(t *testing.T) {
	in, rawPol := fixture()
	pol := opaquePolicy{pol: rawPol}
	sc := New(in).Breakdown(0, 1_000_000, 1_000_001)
	if sc.Static() {
		t.Fatal("scenario with an outage reported Static")
	}
	want, wantInc, wantEng := sim.EstimateInfo(in, pol, 500, 100000, 42)
	if wantEng.Engine != sim.EngineGeneric {
		t.Fatalf("oracle engine %q, want generic", wantEng.Engine)
	}
	got, gotInc, eng, err := EstimateInfo(sc, NewStatic(sc, pol), 500, 100000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Engine != sim.EngineDynamic {
		t.Fatalf("engine %q, want %q", eng.Engine, sim.EngineDynamic)
	}
	if got != want || gotInc != wantInc {
		t.Fatalf("dynamic walk diverged from static engine: %+v/%d vs %+v/%d", got, gotInc, want, wantInc)
	}
}

// A scenario with no events must delegate to the static engines and
// report the engine they chose, not the dynamic walk.
func TestZeroEventDelegation(t *testing.T) {
	in, pol := fixture()
	sc := New(in).ArriveAt(3, 0) // explicit step-0 arrival is still static
	if !sc.Static() {
		t.Fatal("event-free scenario not Static")
	}
	want, wantInc, wantEng := sim.EstimateParallelInfo(in, pol, 500, 100000, 7, 4)
	got, gotInc, eng, err := EstimateInfo(sc, NewStatic(sc, pol), 500, 100000, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Engine == sim.EngineDynamic {
		t.Fatal("static scenario ran the dynamic walk")
	}
	if eng != wantEng || got != want || gotInc != wantInc {
		t.Fatalf("delegation mismatch: %+v/%d/%+v vs %+v/%d/%+v", got, gotInc, eng, want, wantInc, wantEng)
	}
}

func dynamicScenario(in *model.Instance) *Scenario {
	return New(in).
		ArriveAt(5, 4).
		Breakdown(1, 2, 6).
		Burst(0, 0.2, 0.9, 0.3)
}

func TestWorkerCountInvariance(t *testing.T) {
	in, pol := fixture()
	strategies := func(sc *Scenario) []Strategy {
		roll, err := NewRolling(sc, "", core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return []Strategy{NewStatic(sc, pol), NewAdaptive(sc), roll}
	}
	sc := dynamicScenario(in)
	for _, strat := range strategies(sc) {
		seq, seqInc, _, err := EstimateInfo(sc, strat, 600, 100000, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 5} {
			got, gotInc, eng, err := EstimateInfo(sc, strat, 600, 100000, 11, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != seq || gotInc != seqInc {
				t.Fatalf("%s: workers=%d diverged: %+v/%d vs %+v/%d", strat.Name(), workers, got, gotInc, seq, seqInc)
			}
			if eng.Engine != sim.EngineDynamic {
				t.Fatalf("%s: engine %q", strat.Name(), eng.Engine)
			}
		}
	}
}

// Rolling on an event-free scenario must be bit-identical to solving
// the instance statically with the same params and estimating that
// policy — the zero-event regression pin at the dyn layer.
func TestRollingZeroEventMatchesStaticSolve(t *testing.T) {
	in, _ := fixture()
	par := core.DefaultParams()
	_, res, err := solve.Auto(in, par)
	if err != nil {
		t.Fatal(err)
	}
	want, wantInc, wantEng := sim.EstimateParallelInfo(in, res.Policy, 400, 100000, 3, 4)
	sc := New(in)
	roll, err := NewRolling(sc, "auto", par)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInc, eng, err := EstimateInfo(sc, roll, 400, 100000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotInc != wantInc || eng != wantEng {
		t.Fatalf("rolling zero-event diverged: %+v/%d/%+v vs %+v/%d/%+v", got, gotInc, eng, want, wantInc, wantEng)
	}
}

func TestRollingUnknownSolver(t *testing.T) {
	in, _ := fixture()
	if _, err := NewRolling(New(in), "no-such-solver", core.DefaultParams()); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestArrivalDelaysCompletion(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 1
	sc := New(in).ArriveAt(0, 5)
	sum, inc, _, err := EstimateInfo(sc, NewAdaptive(sc), 8, 1000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 0 || sum.Min != 6 || sum.Max != 6 {
		t.Fatalf("arrival at 5 with p=1: got %+v inc=%d, want deterministic makespan 6", sum, inc)
	}
}

func TestOutageBlocksMachine(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 1
	sc := New(in).Breakdown(0, 0, 3)
	sum, inc, _, err := EstimateInfo(sc, NewAdaptive(sc), 8, 1000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 0 || sum.Min != 4 || sum.Max != 4 {
		t.Fatalf("outage [0,3) with p=1: got %+v inc=%d, want deterministic makespan 4", sum, inc)
	}
}

// A total-failure burst (severity 0) entered immediately and never
// left must stall every trajectory at the step cap.
func TestSeverityZeroBurstStalls(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 1
	sc := New(in).AddRegime(Regime{Machine: 0, GoodToBad: 1, BadToGood: 0, Severity: 0})
	sum, inc, _, err := EstimateInfo(sc, NewAdaptive(sc), 8, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 8 || sum.Max != 50 {
		t.Fatalf("total burst: got %+v inc=%d, want all 8 stalled at cap 50", sum, inc)
	}
}

// Under a long outage of the strong machine, rolling (which plans
// around availability) must not do worse in expectation than a static
// schedule built for the full machine set.
func TestRollingAdaptsToOutage(t *testing.T) {
	in, _ := fixture()
	par := core.DefaultParams()
	_, res, err := solve.Auto(in, par)
	if err != nil {
		t.Fatal(err)
	}
	sc := New(in).Breakdown(0, 0, 40).Breakdown(1, 0, 40)
	roll, err := NewRolling(sc, "", par)
	if err != nil {
		t.Fatal(err)
	}
	rollSum, _, _, err := EstimateInfo(sc, roll, 400, 100000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	statSum, _, _, err := EstimateInfo(sc, NewStatic(sc, res.Policy), 400, 100000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rollSum.Mean > statSum.Mean*1.05 {
		t.Fatalf("rolling mean %.3f worse than oblivious %.3f under outage", rollSum.Mean, statSum.Mean)
	}
}

func TestEstimateRejectsBadInput(t *testing.T) {
	in, pol := fixture()
	sc := New(in)
	if _, _, _, err := EstimateInfo(sc, NewStatic(sc, pol), 0, 100, 1, 1); err == nil {
		t.Fatal("reps=0 accepted")
	}
	bad := New(in).ArriveAt(99, 1)
	if _, _, _, err := EstimateInfo(bad, NewAdaptive(bad), 10, 100, 1, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestDynamicGolden pins the dynamic walk's exact output under live
// events: arrivals, an outage and a regime (dynamicScenario), arrivals
// alone, and a total-failure burst on every machine. Worker invariance
// and zero-event parity cannot see a reordered completion or regime
// draw under events; these bit patterns can. The cap of 3565 steps
// lets some rolling trajectories hit it, so the incomplete count is
// pinned too.
func TestDynamicGolden(t *testing.T) {
	in, pol := fixture()
	scenarios := map[string]*Scenario{
		"events":   dynamicScenario(in),
		"arrivals": New(in).ArriveAt(5, 4).ArriveAt(3, 2).ArriveAt(0, 1),
		"blackout": New(in).Burst(-1, 0.3, 0.8, 0),
	}
	golden := []struct {
		scenario, strategy string
		mean, sd           uint64
		min, max           float64
		incomplete         int
	}{
		{"events", "static", 0x40353fffffffffff, 0x4022e6d1921f5086, 8, 61, 0},
		{"events", "adaptive", 0x4024a49249249249, 0x40050a1bff2d4afd, 6, 25, 0},
		{"events", "rolling", 0x40743b277f44c119, 0x40852e907c7539ca, 5, 3565, 14},
		{"arrivals", "static", 0x4032fcb564efe89b, 0x40220ec8aa362569, 8, 73, 0},
		{"arrivals", "adaptive", 0x40225ab277f44c11, 0x4002145d52b87cc5, 6, 19, 0},
		{"arrivals", "rolling", 0x407b50cccccccccd, 0x408d0913e13bfb12, 5, 3565, 56},
		{"blackout", "static", 0x4039b67dce434a9c, 0x402e3bef06953410, 7, 121, 0},
		{"blackout", "adaptive", 0x40266898231bcb58, 0x40101af94995649a, 6, 38, 0},
		{"blackout", "rolling", 0x40abc6118de5ab28, 0x40057561e44dc0d1, 3553, 3565, 9},
	}
	for _, g := range golden {
		sc := scenarios[g.scenario]
		var strat Strategy
		switch g.strategy {
		case "static":
			strat = NewStatic(sc, pol)
		case "adaptive":
			strat = NewAdaptive(sc)
		case "rolling":
			roll, err := NewRolling(sc, "", core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			strat = roll
		}
		for _, workers := range []int{1, 3} {
			sum, inc, eng, err := EstimateInfo(sc, strat, 700, 3565, 23, workers)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Engine != sim.EngineDynamic {
				t.Fatalf("%s/%s: engine %q", g.scenario, g.strategy, eng.Engine)
			}
			if math.Float64bits(sum.Mean) != g.mean || math.Float64bits(sum.StdDev) != g.sd ||
				sum.Min != g.min || sum.Max != g.max || inc != g.incomplete {
				t.Errorf("%s/%s workers=%d: got mean %#x sd %#x min %v max %v incomplete %d",
					g.scenario, g.strategy, workers, math.Float64bits(sum.Mean), math.Float64bits(sum.StdDev), sum.Min, sum.Max, inc)
			}
		}
	}
}

// TestDynamicRepetitionAllocationFree pins one repetition of the step
// walk under live dynamics (arrivals, an outage and a regime, the
// static strategy over a *sched.Oblivious) at zero allocations: 256
// repetitions, still one accumulator chunk, must allocate exactly as
// much as one, so everything allocated is per-call setup.
func TestDynamicRepetitionAllocationFree(t *testing.T) {
	in, pol := fixture()
	sc := dynamicScenario(in)
	strat := NewStatic(sc, pol)
	allocs := func(reps int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, _, err := EstimateInfo(sc, strat, reps, 100000, 3, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(256); many != one {
		t.Errorf("dynamic repetitions allocate: %v allocs for 256 repetitions vs %v for 1", many, one)
	}
}
