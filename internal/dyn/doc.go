// Package dyn layers deterministic dynamics over a static SUU
// instance: job arrivals (a job is invisible and ineligible before its
// release step), machine breakdown/recovery intervals (assignments to
// a down machine are ignored), and a hidden per-machine good/bad
// Markov regime that scales p_ij while the machine is in its bad
// state — the time-correlated failure-burst model, parameterized the
// way two-regime mixture error models are (stationary bad fraction
// and persistence).
//
// A Scenario is the static model.Instance plus that event timeline.
// Strategies walk it: Static replays any fixed policy obliviously to
// the dynamics, Adaptive reruns the masked MSM greedy on the eligible
// jobs and up machines each step, and Rolling re-invokes a registry
// solver on the surviving sub-instance at every event epoch (reusing
// the initial solve's exported LP basis as the warm-start donor via
// core.Params.WarmBasis).
//
// Estimation runs on internal/sim's generic step walk, the same loop
// that executes static policies: each worker gives the walk an env (a
// sim.Env) that replays the timeline and the hidden regime chain into
// the walk's arrival, availability and p-scale masks, and serves the
// strategy's walker its State. Repetition r draws its completion
// stream from (seed, r) and its regime stream from
// (SeedFor(seed, "regime"), r), sim's chunks merge in index order, and
// rolling re-solves are cached per (surviving jobs, up machines) key
// with key-derived construction seeds — so every summary is
// bit-identical at any worker count and under any shard tiling. A
// scenario with no events delegates to the static engines (compiled,
// lane, splice paths included) and is therefore bit-identical to the
// static pipeline by construction.
package dyn
