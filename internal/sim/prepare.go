package sim

import (
	"time"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Prepared is a reusable estimation context: the compiled engine
// artifacts for one (instance, policy) pair — the oblivious per-job
// occurrence lists or the adaptive transition table — built once and
// shared across estimation calls. The per-call estimators pay the
// compile on every invocation; a cache that keys Prepared values by
// instance fingerprint (internal/serve) pays it once and serves every
// later request as a table walk.
//
// A Prepared value is immutable after Prepare and safe for concurrent
// use: every estimation call builds its own per-call runner state on
// top of the shared tables, exactly as the per-call estimators fan
// workers out over one compiled engine.
//
// Results are bit-identical to the cold path: EstimateInfo selects
// the engine for each call with the same reps-dependent dispatch
// rules (the 64×reps adaptive profitability cap, the bit-parallel
// auto floor) that the one-shot estimators apply, so a cached engine
// can change wall-clock only, never a digit. The parity is pinned by
// TestPreparedBitIdenticalToColdPath.
type Prepared struct {
	in       *model.Instance
	pol      sched.Policy
	compiled *compiledOblivious
	adaptive *compiledAdaptive
	buildMS  float64
}

// Prepare compiles the fastest engine the policy admits and returns
// the reusable context. Unlike the per-call estimators, the adaptive
// compile is not capped at 64× any particular repetition count — a
// cached engine amortizes across requests, so the full state budget
// applies at build time; the per-call profitability cap still governs
// which calls use the table (see estimator). Prepare never fails:
// policies no engine compiles (observers, over-budget state spaces,
// cyclic instances) yield a context whose calls run the generic step
// engine, which is still reusable — the instance's flat backing and
// parallel-dispatch decisions are resolved once.
func Prepare(in *model.Instance, pol sched.Policy) *Prepared {
	p := &Prepared{in: in, pol: pol}
	// Resolve the flat backing once, on this goroutine, for the same
	// reason newEstimator does: workers read it concurrently.
	in.Flat()
	start := time.Now()
	if UsesCompiledEngine(in, pol) {
		p.compiled = compileOblivious(in, pol.(*sched.Oblivious))
	} else if mpol, ok := pol.(sched.Memoizable); ok {
		p.adaptive = compileAdaptive(in, mpol, adaptiveCompileBudget)
	}
	p.buildMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return p
}

// Engine reports which compiled artifact Prepare built ("" when the
// calls will run the generic step engine), the compiled adaptive
// state count, and the compile wall-clock — what a cache exposes in
// its status output. The per-call EngineUsed may still differ (lane
// upgrades, the adaptive profitability cap); this is the build-time
// record.
func (p *Prepared) Engine() (engine string, states int, buildMS float64) {
	switch {
	case p.compiled != nil:
		return EngineCompiled, 0, p.buildMS
	case p.adaptive != nil:
		return EngineCompiledAdaptive, len(p.adaptive.states), p.buildMS
	}
	return "", 0, p.buildMS
}

// SizeBytes estimates the resident size of the compiled tables, for
// cache accounting. The generic-engine context is charged a nominal
// footprint so cache math never divides by zero.
func (p *Prepared) SizeBytes() int64 {
	const word = 8
	if c := p.compiled; c != nil {
		n := int64(len(c.steps))*(4+word+word) + int64(len(c.offs)+len(c.topo))*4 +
			int64(len(c.tailPos))*4 + int64(len(c.tailSucc)+len(c.tailMass))*word
		return n + 256
	}
	if a := p.adaptive; a != nil {
		var n int64
		for i := range a.states {
			s := &a.states[i]
			n += int64(len(s.jobs))*4 + int64(len(s.succ)+len(s.mass))*word + int64(len(s.next))*4
		}
		return n + 256
	}
	return 256
}

// estimator assembles the per-call engine selection on top of the
// prepared tables, mirroring newEstimator's dispatch exactly: the
// compiled oblivious engine whenever it exists, the adaptive table
// only when its state count fits the same 64×reps profitability cap
// the cold path applies to its compile budget, the generic step
// engine otherwise; then the same lane upgrade. Matching the cold
// dispatch rule for rule is what keeps warm results bit-identical —
// the engines themselves are pinned equal, but the lane engines
// consume a different (pinned) stream remap, so the lane DECISION
// must agree too.
func (p *Prepared) estimator(reps int) *estimator {
	e := &estimator{in: p.in, pol: p.pol, engine: EngineUsed{Engine: EngineGeneric}}
	switch {
	case p.compiled != nil:
		e.compiled = p.compiled
		e.engine.Engine = EngineCompiled
		e.engine.Spliced = p.compiled.spliceMode != spliceOff
	case p.adaptive != nil:
		budget := adaptiveCompileBudget
		if reps < budget/64 {
			budget = 64 * reps
		}
		if len(p.adaptive.states) <= budget {
			e.adaptive = p.adaptive
			e.engine.Engine = EngineCompiledAdaptive
			e.engine.States = len(p.adaptive.states)
			// TableBuildMS stays 0: this call paid nothing.
			e.engine.Spliced = p.adaptive.splice
		}
	}
	e.maybeLane(reps)
	return e
}

// EstimateInfo is sim.EstimateInfo on the prepared engines: reps
// repetitions, sequential, summary plus the EngineUsed record.
func (p *Prepared) EstimateInfo(reps, maxSteps int, seed int64) (stats.Summary, int, EngineUsed) {
	return p.EstimateParallelInfo(reps, maxSteps, seed, 1)
}

// EstimateParallelInfo is sim.EstimateParallelInfo on the prepared
// engines. Repetition streams, chunk merging, and the engine dispatch
// match the one-shot estimators call for call, so the summary is
// bit-identical to a cold estimate of the same (reps, maxSteps, seed)
// at any concurrency. concurrency <= 0 selects GOMAXPROCS; observer
// policies degrade to sequential exactly as EstimateParallel does.
func (p *Prepared) EstimateParallelInfo(reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	workers := effectiveWorkers(Parallelizable(p.pol), concurrency)
	return runEstimator(p.estimator(reps), reps, maxSteps, seed, workers)
}
