package sim

import (
	"runtime"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Parallelizable reports whether EstimateParallel can fan pol out
// across workers. Policies that implement sched.OutcomeObserver carry
// mutable per-run state fed back by the simulator, so their
// repetitions must run sequentially; everything else (oblivious
// schedules, regimens, stationary adaptive policies — including every
// sched.Memoizable policy the compiled adaptive engine accepts) is
// safe to share read-only across workers.
func Parallelizable(pol sched.Policy) bool {
	_, observes := pol.(sched.OutcomeObserver)
	return !observes
}

// EstimateParallel is Estimate fanned out over workers. Each
// repetition derives its RNG stream from (seed, rep) exactly as the
// sequential version does, and per-chunk aggregates merge in a fixed
// order, so the returned summary is bit-identical to Estimate's
// regardless of scheduling — parallelism changes only wall-clock
// time.
//
// The policy is shared across workers, which requires
// Parallelizable(pol); when it is false (the policy observes
// outcomes), EstimateParallel IGNORES the concurrency argument and
// falls back to the sequential path — identical results, no fan-out.
// That decision used to be invisible; EstimateParallelInfo returns it
// as EngineUsed.Workers == 1, and harnesses that persist results
// should call that form. concurrency <= 0 selects GOMAXPROCS.
func EstimateParallel(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int) {
	sum, inc, _ := EstimateParallelInfo(in, pol, reps, maxSteps, seed, concurrency)
	return sum, inc
}

// EstimateParallelInfo is EstimateParallel plus the EngineUsed record:
// which engine ran the repetitions and the effective worker count
// after the parallelizability check — 1 when an observer policy
// silently degraded the requested fan-out to sequential, which is how
// grid rows and BENCH_sim.json record the engine that actually ran.
func EstimateParallelInfo(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	return estimateChunked(in, pol, reps, maxSteps, seed, effectiveWorkers(Parallelizable(pol), concurrency))
}

// EstimateEnv is EstimateParallelInfo for the step walk under an Env.
// newWorker is called once per worker for that worker's policy and
// Env; repetition r resets the Env with r, and its completion draws
// come from stream (seed, r) as everywhere else. parallel reports
// whether the workers' policies may run concurrently (false pins one
// worker). The compiled engines assume a fixed instance, so this
// always runs the step walk and reports EngineDynamic.
func EstimateEnv(in *model.Instance, newWorker func() (sched.Policy, Env), parallel bool, reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	// Resolve the flat backing here, before workers read it
	// concurrently (see newEstimator).
	in.Flat()
	est := &estimator{in: in, newEnv: newWorker, engine: EngineUsed{Engine: EngineDynamic}}
	return runEstimator(est, reps, maxSteps, seed, effectiveWorkers(parallel, concurrency))
}

// effectiveWorkers resolves a requested concurrency against the
// policy's parallelizability: non-parallel (observer) policies always
// run sequentially, and concurrency <= 0 selects GOMAXPROCS. Shared by
// every fan-out entry point so all degrade identically.
func effectiveWorkers(parallel bool, concurrency int) int {
	if !parallel || concurrency == 1 {
		return 1
	}
	if concurrency <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return concurrency
}
