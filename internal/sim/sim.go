package sim

import (
	"math/rand"
	"time"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Result is the outcome of a single execution.
type Result struct {
	// Makespan is the number of steps executed until the last job
	// completed; equals the step cap when Completed is false.
	Makespan int
	// Completed reports whether every job finished within the cap.
	Completed bool
	// Mass[j] is the total mass job j accumulated while unfinished
	// (sum of p[i][j] over machine-steps assigned to j).
	Mass []float64
}

// Run executes policy pol on instance in for at most maxSteps steps
// using rng for completion draws. Machines assigned to ineligible or
// finished jobs idle for the step, per Definition 2.1. For repeated
// runs, prefer a Runner (buffer reuse) or the estimators below.
func Run(in *model.Instance, pol sched.Policy, maxSteps int, rng *rand.Rand) Result {
	r := NewRunner(in, pol)
	makespan, completed := r.Run(maxSteps, rng)
	mass := make([]float64, in.N)
	copy(mass, r.Mass())
	return Result{Makespan: makespan, Completed: completed, Mass: mass}
}

// repRunner is one worker's engine: run executes repetition rep
// (drawing from rng), mass exposes the per-job mass of the latest
// repetition as a view.
type repRunner interface {
	run(rep int64, maxSteps int, rng Rand) (makespan int, completed bool)
	massView() []float64
}

func (r *Runner) massView() []float64 { return r.rs.mass }

// Engine names for EngineUsed.Engine. The compiled oblivious engine
// keeps the short name "compiled" that BENCH_sim.json has carried
// since the engine landed; the "-lane" suffix marks the bit-parallel
// 64-repetitions-per-word forms (see lane.go).
const (
	EngineGeneric          = "generic"
	EngineCompiled         = "compiled"
	EngineCompiledAdaptive = "compiled-adaptive"
	EngineLane             = "compiled-lane"
	EngineLaneAdaptive     = "compiled-adaptive-lane"
	// EngineDynamic is the generic step walk under an Env
	// (EstimateEnv), which internal/dyn drives: arrivals, outages and
	// regime modulation change the instance mid-run, which the
	// compiled engines' immutable tables cannot express. Scenarios
	// without events delegate back to the static engines and report
	// those names.
	EngineDynamic = "dynamic-step"
)

// EngineUsed reports which engine an estimation call actually ran —
// the record satellite harnesses (grid rows, BENCH_sim.json) persist
// so a silent fallback to the slow path is visible in the output, not
// just in wall-clock time.
type EngineUsed struct {
	// Engine is EngineCompiled (event-wise oblivious), the
	// EngineCompiledAdaptive transition-table walk, their bit-parallel
	// lane forms EngineLane / EngineLaneAdaptive, or EngineGeneric.
	Engine string
	// Lanes is the lockstep width of the bit-parallel engine (64), or
	// 0 for the scalar engines.
	Lanes int
	// Workers is the effective fan-out after the parallelizability
	// check (1 = sequential, also for observer policies that silently
	// lose their requested concurrency).
	Workers int
	// States is the compiled adaptive table's state count (0 for the
	// other engines). Deterministic for a given (instance, policy).
	States int
	// TableBuildMS is the adaptive table's compile wall-clock for this
	// call — provenance for perf records, never merge payload.
	TableBuildMS float64
	// Spliced reports whether the engine samples terminal (≤2
	// unfinished jobs) stretches in closed form (see splice.go): the
	// TerminalSplice knob as snapshotted at compile time, and for the
	// compiled oblivious engine additionally whether the schedule's
	// tail shape admits splicing. Spliced results are a different Monte
	// Carlo sample of the same distribution, so persisted records need
	// the flag to explain last-digit differences.
	Spliced bool
}

// estimator selects and shares the engine for one estimation call:
// the compiled event engine for oblivious policies, the compiled
// transition-table engine for stationary (sched.Memoizable) adaptive
// policies within the state budget, the generic step engine
// otherwise. The compiled forms are immutable and shared by all
// workers; each worker gets its own mutable runner.
type estimator struct {
	in       *model.Instance
	pol      sched.Policy
	compiled *compiledOblivious
	adaptive *compiledAdaptive
	engine   EngineUsed
	// lane selects the bit-parallel lockstep form of the compiled
	// engine for the chunked estimators (see lane.go and maybeLane);
	// oracle additionally replays it one lane at a time on the scalar
	// walk (the parity tests' exactness oracle).
	lane   bool
	oracle bool
	// newEnv, when set, builds each worker's policy and Env for the
	// step walk (EstimateEnv); pol is then unused.
	newEnv func() (sched.Policy, Env)
}

// UsesCompiledEngine reports whether the estimators will run pol on
// in with the compiled oblivious engine rather than the generic step
// engine: an oblivious schedule with a non-empty prefix, no outcome
// observation, and an acyclic instance. Exported so reporting code
// (BENCH_sim.json) attributes measurements to the engine that
// actually ran; for the full decision including the compiled adaptive
// engine use the EngineUsed value returned by EstimateInfo.
func UsesCompiledEngine(in *model.Instance, pol sched.Policy) bool {
	o, ok := pol.(*sched.Oblivious)
	if !ok || len(o.Steps) == 0 || !Parallelizable(pol) {
		return false
	}
	_, err := in.Prec.TopoOrder()
	return err == nil
}

// newEstimator selects the engine for one estimation call of `reps`
// repetitions. The repetition count bounds the adaptive compile: a
// state costs about one policy call to memoize, the same as one step
// of the generic engine, so a table bigger than 64× the repetitions
// could never amortize — the BFS is capped there, which also bounds
// the wasted walk on instances whose reachable space would exhaust
// the full budget anyway.
func newEstimator(in *model.Instance, pol sched.Policy, reps int) *estimator {
	e := &estimator{in: in, pol: pol, engine: EngineUsed{Engine: EngineGeneric}}
	// Resolve the flat backing once, on this goroutine: workers read
	// it concurrently via newRunState, and Instance.Flat rebuilds
	// lazily when the rows were replaced wholesale.
	in.Flat()
	if UsesCompiledEngine(in, pol) {
		e.compiled = compileOblivious(in, pol.(*sched.Oblivious))
		if e.compiled != nil {
			e.engine.Engine = EngineCompiled
			e.engine.Spliced = e.compiled.spliceMode != spliceOff
		}
		e.maybeLane(reps)
		return e
	}
	if mpol, ok := pol.(sched.Memoizable); ok {
		budget := adaptiveCompileBudget
		if reps < budget/64 {
			budget = 64 * reps
		}
		start := time.Now()
		e.adaptive = compileAdaptive(in, mpol, budget)
		if e.adaptive != nil {
			e.engine.Engine = EngineCompiledAdaptive
			e.engine.States = len(e.adaptive.states)
			e.engine.TableBuildMS = float64(time.Since(start).Nanoseconds()) / 1e6
			e.engine.Spliced = e.adaptive.splice
		}
		e.maybeLane(reps)
	}
	return e
}

// maybeLane upgrades a compiled engine to its bit-parallel lane form
// per the BitParallel knob and the auto-dispatch repetition floor.
// The chunked estimators and MassWithinHorizon act on the flag
// (through newLaneWorker); callers that drive repetitions one at a
// time (MakespanQuantiles via newWorker) always run the scalar
// engines.
func (e *estimator) maybeLane(reps int) {
	if e.compiled == nil && e.adaptive == nil {
		return
	}
	switch bitParallelMode {
	case BitParallelOff:
		return
	case BitParallelAuto:
		if reps < BitParallelAutoMinReps {
			return
		}
	case bitParallelOracle:
		e.oracle = true
	}
	e.lane = true
	e.engine.Lanes = LaneWidth
	if e.compiled != nil {
		e.engine.Engine = EngineLane
	} else {
		e.engine.Engine = EngineLaneAdaptive
	}
}

func (e *estimator) newWorker() repRunner {
	if e.compiled != nil {
		return e.compiled.newRunner()
	}
	if e.adaptive != nil {
		return e.adaptive.newRunner()
	}
	if e.newEnv != nil {
		pol, env := e.newEnv()
		r := NewRunner(e.in, pol)
		r.rs.env = env
		return r
	}
	return NewRunner(e.in, e.pol)
}

// estimateChunk is the number of repetitions aggregated into one
// streaming accumulator. Chunks are the unit of work distribution and
// of deterministic merging; the value trades scheduling granularity
// against the O(reps/estimateChunk) slice of accumulators.
const estimateChunk = 256

// Chunk boundaries must stay lane-group aligned so a 64-rep lane
// group never spans two accumulator chunks (only the final, possibly
// partial group ends mid-width). Compile-time assert.
var _ [estimateChunk % LaneWidth]struct{} = [0]struct{}{}

// estimateChunked runs reps repetitions on the given number of
// workers. Repetition r draws from stream (seed, r) — or, under the
// lane engine, from the group-g lane streams of the remap documented
// in lane.go — and lands in accumulator r/estimateChunk regardless of
// which worker ran it, and chunks merge in index order, so the result
// is bit-identical for every worker count.
func estimateChunked(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, workers int) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	return runEstimator(newEstimator(in, pol, reps), reps, maxSteps, seed, workers)
}

// runEstimator executes the chunked estimation loop on an
// already-selected engine. Split from estimateChunked so a cached
// sim.Prepared can feed its reusable compiled engines through the
// exact execution path the cold estimators use.
func runEstimator(est *estimator, reps, maxSteps int, seed int64, workers int) (stats.Summary, int, EngineUsed) {
	nchunks := (reps + estimateChunk - 1) / estimateChunk
	accs := make([]stats.Accumulator, nchunks)
	incs := make([]int, nchunks)
	// newChunkLoop builds one worker's engine and returns its
	// chunk-execution func. Lane workers fold each group's makespans
	// in lane order (= repetition order under the remap).
	newChunkLoop := func() func(c int) {
		if est.lane {
			w := est.newLaneWorker(seed)
			return func(c int) {
				lo, hi := c*estimateChunk, (c+1)*estimateChunk
				if hi > reps {
					hi = reps
				}
				acc := &accs[c]
				for glo := lo; glo < hi; glo += LaneWidth {
					cnt := hi - glo
					if cnt > LaneWidth {
						cnt = LaneWidth
					}
					mk, completed := w.runGroup(int64(glo/LaneWidth), cnt, maxSteps)
					for l := 0; l < cnt; l++ {
						acc.Add(float64(mk[l]))
						if completed>>uint(l)&1 == 0 {
							incs[c]++
						}
					}
				}
			}
		}
		w := est.newWorker()
		var rng Stream
		return func(c int) {
			lo, hi := c*estimateChunk, (c+1)*estimateChunk
			if hi > reps {
				hi = reps
			}
			acc := &accs[c]
			for r := lo; r < hi; r++ {
				rng.Reseed(seed, int64(r))
				makespan, completed := w.run(int64(r), maxSteps, &rng)
				acc.Add(float64(makespan))
				if !completed {
					incs[c]++
				}
			}
		}
	}
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		runChunk := newChunkLoop()
		for c := 0; c < nchunks; c++ {
			runChunk(c)
		}
	} else {
		next := make(chan int)
		done := make(chan struct{})
		for g := 0; g < workers; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				runChunk := newChunkLoop()
				for c := range next {
					runChunk(c)
				}
			}()
		}
		for c := 0; c < nchunks; c++ {
			next <- c
		}
		close(next)
		for g := 0; g < workers; g++ {
			<-done
		}
	}
	var total stats.Accumulator
	incomplete := 0
	for c := range accs {
		total.Merge(accs[c])
		incomplete += incs[c]
	}
	eng := est.engine
	if workers < 1 {
		workers = 1
	}
	eng.Workers = workers
	return total.Summary(), incomplete, eng
}

// Estimate runs reps independent executions (repetition r's RNG
// stream is derived deterministically from (seed, r)) and returns the
// summary of observed makespans together with the number of runs that
// hit the step cap without completing. Aggregation is streaming: the
// full sample is never materialized.
func Estimate(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64) (stats.Summary, int) {
	sum, inc, _ := estimateChunked(in, pol, reps, maxSteps, seed, 1)
	return sum, inc
}

// EstimateInfo is Estimate plus the EngineUsed record — which engine
// actually ran (compiled oblivious, compiled adaptive with its state
// count and table build time, or the generic step engine). Harness
// code that persists results should prefer this form so a fallback to
// the slow path is recorded, not inferred.
func EstimateInfo(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64) (stats.Summary, int, EngineUsed) {
	return estimateChunked(in, pol, reps, maxSteps, seed, 1)
}

// massSeedSalt decorrelates MassWithinHorizon's streams from
// Estimate's when both are called with the same seed.
const massSeedSalt = 0x6D617373 // "mass"

// MassWithinHorizon runs reps executions of pol truncated at horizon
// steps and returns, for job j, the fraction of runs in which j
// accumulated mass at least threshold. Used to validate Theorem 2.2
// empirically. Large-reps calls on compiled policies run the
// bit-parallel lane engine with per-lane mass tracking (see
// laneWorker.massLanes); the threshold counts are then taken over the
// lane remap's sample instead of the scalar streams — same
// distribution, different draws.
func MassWithinHorizon(in *model.Instance, pol sched.Policy, horizon, reps int, threshold float64, seed int64) []float64 {
	counts := make([]float64, in.N)
	est := newEstimator(in, pol, reps)
	if est.lane {
		w := est.newLaneWorker(seed ^ massSeedSalt)
		mass := w.massLanes()
		n := in.N
		for glo := 0; glo < reps; glo += LaneWidth {
			cnt := reps - glo
			if cnt > LaneWidth {
				cnt = LaneWidth
			}
			w.runGroup(int64(glo/LaneWidth), cnt, horizon)
			for l := 0; l < cnt; l++ {
				accrueMassHits(counts, mass[l*n:(l+1)*n], threshold)
			}
		}
	} else {
		w := est.newWorker()
		var rng Stream
		for r := 0; r < reps; r++ {
			rng.Reseed(seed^massSeedSalt, int64(r))
			w.run(int64(r), horizon, &rng)
			accrueMassHits(counts, w.massView(), threshold)
		}
	}
	for j := range counts {
		counts[j] /= float64(reps)
	}
	return counts
}

// accrueMassHits bumps counts[j] for every job whose accumulated mass
// clears the threshold (comparison tolerance shared by both engines).
func accrueMassHits(counts, mass []float64, threshold float64) {
	for j, mss := range mass {
		if mss >= threshold-1e-12 {
			counts[j]++
		}
	}
}
