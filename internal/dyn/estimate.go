package dyn

import (
	"errors"

	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/stats"
)

// Strategy produces per-worker walkers for one scenario. Strategies
// are bound to their scenario at construction (NewStatic, NewAdaptive,
// NewRolling); the estimator gives every worker its own walker, so a
// walker never needs internal locking.
type Strategy interface {
	// Name labels the strategy in tables and BENCH records.
	Name() string
	// NewWalker returns a fresh walker for one worker goroutine, or
	// nil when the strategy is blind to the dynamics: the estimator
	// then hands StaticPolicy to the walk unchanged.
	NewWalker() Walker
	// StaticPolicy returns a static policy that reproduces the
	// strategy on a scenario with no events, and whether one exists.
	// The estimator delegates event-free scenarios through it to the
	// static engines (compiled, lane and splice paths included), which
	// is what pins the zero-event scenario bit-identical to the static
	// pipeline.
	StaticPolicy() (sched.Policy, bool)
	// parallelizable reports whether walkers may run on concurrent
	// workers (false when they share state the runtime cannot see,
	// e.g. a static wrapper around an outcome-observing policy).
	parallelizable() bool
}

// regimeLabel derives the regime stream's seed domain from the
// simulation seed; completion draws and regime transitions never
// share a stream.
const regimeLabel = "regime"

// EstimateInfo runs reps trajectories of strat on sc across workers
// goroutines (<= 0 selects GOMAXPROCS) and returns the makespan
// summary, the number of trajectories that hit the step cap, and the
// engine record. Trajectories run on sim's step walk under a
// per-worker env (sim.EstimateEnv): repetition r draws completions
// from stream (seed, r) and regime transitions from
// (SeedFor(seed, "regime"), r), and sim's chunked aggregation keeps
// the result bit-identical at any worker count. Scenarios with no
// events delegate to the static engines via Strategy.StaticPolicy.
func EstimateInfo(sc *Scenario, strat Strategy, reps, maxSteps int, seed int64, workers int) (stats.Summary, int, sim.EngineUsed, error) {
	if reps <= 0 {
		return stats.Summary{}, 0, sim.EngineUsed{}, errors.New("dyn: reps must be positive")
	}
	tl, err := sc.compile()
	if err != nil {
		return stats.Summary{}, 0, sim.EngineUsed{}, err
	}
	if sc.Static() {
		if pol, ok := strat.StaticPolicy(); ok {
			sum, inc, eng := sim.EstimateParallelInfo(sc.In, pol, reps, maxSteps, seed, workers)
			return sum, inc, eng, nil
		}
	}
	regSeed := sim.SeedFor(seed, regimeLabel)
	newWorker := func() (sched.Policy, sim.Env) {
		e := newEnv(sc.In, tl, regSeed)
		if e.w = strat.NewWalker(); e.w == nil {
			pol, _ := strat.StaticPolicy()
			return pol, e
		}
		return e, e
	}
	sum, inc, eng := sim.EstimateEnv(sc.In, newWorker, strat.parallelizable(), reps, maxSteps, seed, workers)
	return sum, inc, eng, nil
}
