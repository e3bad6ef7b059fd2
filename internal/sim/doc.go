// Package sim executes SUU schedules. It provides a Monte Carlo
// engine that runs any sched.Policy on an instance, tracking job
// completions, eligibility under the precedence dag, and per-job mass
// accumulation (Definition 2.4), plus estimators that aggregate many
// runs into makespan summaries.
//
// # Engine architecture
//
// Three engines share one semantics. The generic step engine
// (runState) advances one step at a time, asking the policy for an
// assignment and drawing one uniform per (eligible, assigned) job per
// step; all per-run buffers live in a reusable runState, so the step
// loop is allocation-free. When the policy is a *sched.Oblivious, the
// estimators compile its prefix once into per-job occurrence lists
// and replay repetitions event-wise (see oblivious.go), falling back
// to the step engine for any repetition that outlives the prefix.
// When the policy is stationary (sched.Memoizable) and its reachable
// state space fits the compile budget, the estimators memoize one
// assignment digest per unfinished-set key and replay repetitions as
// table-driven walks (see adaptive.go), falling back transparently to
// the step engine otherwise; EstimateInfo reports which engine ran.
// On top of either compiled form, large-reps calls run 64 repetitions
// per machine word with the bit-parallel lane engine (see lane.go and
// the BitParallel knob), under a pinned SeedFor-derived stream remap.
//
// The step engine is also the only walk for dynamic scenarios: under
// an Env (EstimateEnv, driven by internal/dyn) it skips down machines,
// scales p_ij per machine and holds back jobs until their release
// step. Static runs carry no Env and take none of those branches.
//
// Estimators derive repetition r's RNG stream from (seed, r) with a
// SplitMix64 reseed (see rng.go) and aggregate makespans into
// fixed-size chunks of streaming stats.Accumulator values that merge
// in chunk order. Chunk boundaries depend only on the repetition
// count, so Estimate and EstimateParallel return bit-identical
// summaries at every concurrency, while memory stays O(reps/chunk)
// instead of O(reps).
//
// Long-lived callers (the serve daemon) use Prepared: Prepare compiles
// a (instance, policy) pair once — prefix occurrence lists, adaptive
// digest tables, lane plans — and EstimateParallelInfo replays it for
// any (reps, seed, concurrency) with results bit-identical to the
// corresponding cold Estimate call; the equivalence is pinned by
// TestPreparedBitIdenticalToColdPath.
package sim
