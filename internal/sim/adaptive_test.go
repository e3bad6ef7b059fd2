package sim

import (
	"math"
	"runtime"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/workload"
)

// adaptiveParityCases builds one (instance, policy) pair per
// stationary-policy family the compiled adaptive engine must cover:
// the MSM greedy (SUU-I-ALG), a greedy regimen frozen through the opt
// state walk, and a trained-then-frozen learning policy.
func adaptiveParityCases(t *testing.T) map[string]struct {
	in  *model.Instance
	pol sched.Memoizable
} {
	t.Helper()
	cases := map[string]struct {
		in  *model.Instance
		pol sched.Memoizable
	}{}

	msmIn := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	cases["msm-adaptive"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{msmIn, &core.AdaptivePolicy{In: msmIn}}

	regIn := workload.Chains(workload.Config{Jobs: 9, Machines: 3, Seed: 7}, 3)
	reg, err := opt.GreedyRegimen(regIn, func(unf, elig []bool) sched.Assignment {
		return core.MSMAlg(regIn, elig)
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["greedy-regimen"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{regIn, reg}

	learnIn := workload.Independent(workload.Config{Jobs: 8, Machines: 3, Seed: 13})
	lp := core.NewLearningPolicy(learnIn, 0.5)
	r := NewRunner(learnIn, lp)
	var rng Stream
	for rep := 0; rep < 25; rep++ {
		rng.Reseed(99, int64(rep))
		r.Run(100000, &rng)
	}
	cases["frozen-learning"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{learnIn, lp.Frozen()}

	return cases
}

// TestCompiledAdaptiveBitIdenticalToGeneric is the tentpole's parity
// bar: for every stationary-policy family, the compiled transition
// table must reproduce the generic step engine's summary and
// incomplete count EXACTLY (same draws, same order, same floats), and
// must stay bit-identical across worker counts 1/4/GOMAXPROCS.
func TestCompiledAdaptiveBitIdenticalToGeneric(t *testing.T) {
	// This pins the SCALAR table walk to the step engine; at these rep
	// counts auto dispatch would select the lane engine, whose own
	// exactness contract lives in lane_test.go. Terminal splicing is
	// distribution- but not draw-preserving, so it is pinned off too
	// (see splice_test.go for its own contract).
	defer SetBitParallel(BitParallelOff)()
	defer SetTerminalSplice(false)()
	const reps, cap, seed = 1500, 100000, 17
	for name, tc := range adaptiveParityCases(t) {
		t.Run(name, func(t *testing.T) {
			sumC, incC, eng := EstimateInfo(tc.in, tc.pol, reps, cap, seed)
			if eng.Engine != EngineCompiledAdaptive {
				t.Fatalf("engine = %q (states %d), want %q", eng.Engine, eng.States, EngineCompiledAdaptive)
			}
			if eng.States < 2 {
				t.Fatalf("suspiciously small table: %d states", eng.States)
			}
			generic := sched.PolicyFunc(tc.pol.Assign)
			sumG, incG, engG := EstimateInfo(tc.in, generic, reps, cap, seed)
			if engG.Engine != EngineGeneric {
				t.Fatalf("PolicyFunc wrapper ran on %q, want generic", engG.Engine)
			}
			if sumC != sumG || incC != incG {
				t.Errorf("engines disagree: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
			}
			for _, conc := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
				got, gotInc, engP := EstimateParallelInfo(tc.in, tc.pol, reps, cap, seed, conc)
				if engP.Engine != EngineCompiledAdaptive {
					t.Errorf("concurrency %d: engine %q", conc, engP.Engine)
				}
				if got != sumC || gotInc != incC {
					t.Errorf("concurrency %d: %+v/%d differs from sequential %+v/%d", conc, got, gotInc, sumC, incC)
				}
			}
		})
	}
}

// TestCompiledAdaptiveMassParity checks the one place the compiled
// walk is allowed to differ in the last bits — per-job mass is added
// as a precomputed per-step sum — stays within float tolerance of the
// step engine's machine-by-machine accumulation.
func TestCompiledAdaptiveMassParity(t *testing.T) {
	// Scalar-vs-generic draw identity: pin off the lane dispatch (whose
	// mass contract is TestLaneMassParity) and terminal splicing.
	defer SetBitParallel(BitParallelOff)()
	defer SetTerminalSplice(false)()
	in := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	pol := &core.AdaptivePolicy{In: in}
	generic := sched.PolicyFunc(pol.Assign)
	const reps, horizon = 2000, 12
	fast := MassWithinHorizon(in, pol, horizon, reps, 0.25, 31)
	slow := MassWithinHorizon(in, generic, horizon, reps, 0.25, 31)
	for j := range fast {
		if math.Abs(fast[j]-slow[j]) > 1e-9 {
			t.Errorf("job %d: mass fraction compiled %v vs generic %v", j, fast[j], slow[j])
		}
	}
}

// TestCompiledAdaptiveFallbackOverBudget pins the transparent
// fallback: with the budget set one state below the instance's
// reachable count, the estimator must run the generic engine — and
// produce the exact summary the compiled engine produces when the
// budget fits, because the engines are bit-identical. A zero budget
// disables compilation outright.
func TestCompiledAdaptiveFallbackOverBudget(t *testing.T) {
	defer SetBitParallel(BitParallelOff)() // pin the scalar engines; see lane_test.go
	defer SetTerminalSplice(false)()       // draw identity with the generic engine
	in := workload.Independent(workload.Config{Jobs: 8, Machines: 3, Seed: 3})
	pol := &core.AdaptivePolicy{In: in}
	const reps, cap, seed = 800, 100000, 5

	sumC, incC, eng := EstimateInfo(in, pol, reps, cap, seed)
	if eng.Engine != EngineCompiledAdaptive {
		t.Fatalf("engine %q at default budget, want compiled-adaptive", eng.Engine)
	}
	restore := SetAdaptiveCompileBudget(eng.States - 1)
	sumG, incG, engG := EstimateInfo(in, pol, reps, cap, seed)
	restore()
	if engG.Engine != EngineGeneric || engG.States != 0 {
		t.Fatalf("budget %d for %d states: engine %q (states %d), want generic fallback",
			eng.States-1, eng.States, engG.Engine, engG.States)
	}
	if sumC != sumG || incC != incG {
		t.Errorf("fallback changed values: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
	}

	restore = SetAdaptiveCompileBudget(0)
	_, _, engOff := EstimateInfo(in, pol, reps, cap, seed)
	restore()
	if engOff.Engine != EngineGeneric {
		t.Errorf("budget 0: engine %q, want generic", engOff.Engine)
	}
}

// TestCompiledAdaptiveStuckState: a regimen with missing states idles
// there forever; the compiled walk must report the same capped,
// incomplete runs as the step engine.
func TestCompiledAdaptiveStuckState(t *testing.T) {
	defer SetBitParallel(BitParallelOff)() // pin the scalar engines; see lane_test.go
	in := model.New(2, 1)
	in.SetAt(0, 0, 0.5)
	in.SetAt(0, 1, 0.5)
	reg := sched.NewRegimen(2, 1)
	reg.F[sched.Key([]bool{true, true})] = sched.Assignment{0} // {1} and {0,1}\{0} states missing
	const reps, cap, seed = 400, 50, 9
	sumC, incC, eng := EstimateInfo(in, reg, reps, cap, seed)
	if eng.Engine != EngineCompiledAdaptive {
		t.Fatalf("engine %q, want compiled-adaptive", eng.Engine)
	}
	sumG, incG := Estimate(in, sched.PolicyFunc(reg.Assign), reps, cap, seed)
	if sumC != sumG || incC != incG {
		t.Errorf("stuck-state parity: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
	}
	if incC == 0 {
		t.Error("fixture did not get stuck; missing-state fallback untested")
	}
}

// TestCompiledAdaptiveObserverNeverCompiles: a policy that both claims
// stationarity and observes outcomes is a contract violation; the
// engine refuses to compile it rather than drop its observations.
func TestCompiledAdaptiveObserverNeverCompiles(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 6, Machines: 2, Seed: 21})
	lp := core.NewLearningPolicy(in, 0)
	_, _, eng := EstimateInfo(in, observingMemoizable{lp}, 50, 10000, 3)
	if eng.Engine != EngineGeneric {
		t.Errorf("observer policy compiled to %q", eng.Engine)
	}
	// And the live (non-memoizable) learner loses its requested fan-out
	// explicitly: EngineUsed.Workers records the sequential decision.
	_, _, engPar := EstimateParallelInfo(in, lp, 50, 10000, 3, 4)
	if engPar.Engine != EngineGeneric || engPar.Workers != 1 {
		t.Errorf("observer fan-out not degraded to sequential: %+v", engPar)
	}
}

// observingMemoizable wraps the learner with a bogus Memoizable claim.
type observingMemoizable struct{ *core.LearningPolicy }

func (observingMemoizable) Memoizable() {}

// TestCompiledAdaptiveCertainJobParity: p_ij = 1 drives the step
// engine's fail product to zero mid-step; a first-touch sentinel based
// on fail[j]==0 would re-enroll the job, double-count its mass, and
// desync the draw stream. Both engines use an explicit seen marker, so
// a certain job drawn by several machines stays one trial — and the
// engines stay bit-identical.
func TestCompiledAdaptiveCertainJobParity(t *testing.T) {
	defer SetBitParallel(BitParallelOff)() // pin the scalar engines; see lane_test.go
	defer SetTerminalSplice(false)()       // draw identity with the generic engine
	in := model.New(2, 2)
	in.SetAt(0, 0, 1)
	in.SetAt(1, 0, 1)
	in.SetAt(0, 1, 0.5)
	in.SetAt(1, 1, 0.5)
	pol := &core.AllOnOnePolicy{In: in} // gangs both machines onto job 0, then job 1
	const reps, cap, seed = 600, 10000, 13
	sumC, incC, eng := EstimateInfo(in, pol, reps, cap, seed)
	if eng.Engine != EngineCompiledAdaptive {
		t.Fatalf("engine %q, want compiled-adaptive", eng.Engine)
	}
	sumG, incG := Estimate(in, sched.PolicyFunc(pol.Assign), reps, cap, seed)
	if sumC != sumG || incC != incG {
		t.Errorf("p=1 parity: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
	}
	// Mass of the certain job is exactly 2 (both machines' p summed
	// once), not 4 — the duplicate-enrollment symptom.
	est := newEstimator(in, pol, reps)
	w := est.newWorker()
	var rng Stream
	rng.Reseed(seed, 0)
	w.run(0, cap, &rng)
	if got := w.massView()[0]; math.Abs(got-2) > 1e-12 {
		t.Errorf("certain job accumulated mass %v, want exactly 2", got)
	}
}

// TestCompiledAdaptiveWideAssignmentFallsBack: a state that trials
// more than 20 jobs would need a >2^20-slot successor array; the
// compiler must refuse (before allocating) and the estimator fall
// back to the generic engine instead of exhausting memory.
func TestCompiledAdaptiveWideAssignmentFallsBack(t *testing.T) {
	const n = 24
	in := model.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := 0.1
			if i == j {
				p = 0.9 // each machine's argmax is its own job
			}
			in.SetAt(i, j, p)
		}
	}
	pol := &core.GreedyMaxPPolicy{In: in}
	sum, inc, eng := EstimateInfo(in, pol, 200, 10000, 7)
	if eng.Engine != EngineGeneric {
		t.Fatalf("wide assignment compiled to %q (states %d), want generic fallback", eng.Engine, eng.States)
	}
	sumG, incG := Estimate(in, sched.PolicyFunc(pol.Assign), 200, 10000, 7)
	if sum != sumG || inc != incG {
		t.Errorf("fallback changed values: %+v/%d vs %+v/%d", sum, inc, sumG, incG)
	}
}

// TestCompiledAdaptiveRepAllocationFree proves the table walk
// allocates nothing per repetition.
func TestCompiledAdaptiveRepAllocationFree(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	pol := &core.AdaptivePolicy{In: in}
	c := compileAdaptive(in, pol, adaptiveCompileBudget)
	if c == nil {
		t.Fatal("compile failed")
	}
	w := c.newRunner()
	var rng Stream
	rng.Reseed(1, 0)
	w.run(0, 100000, &rng)
	allocs := testing.AllocsPerRun(50, func() {
		rng.Reseed(1, 1)
		if makespan, done := w.run(0, 100000, &rng); !done || makespan <= 0 {
			t.Fatal("run failed")
		}
	})
	if allocs != 0 {
		t.Errorf("compiled adaptive repetition: %v allocs/run, want 0", allocs)
	}
}
