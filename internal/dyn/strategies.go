package dyn

import (
	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

// StaticStrategy replays a fixed policy obliviously to the dynamics:
// the policy sees the standard sched.State (unfinished/eligible/step)
// and nothing about outages or arrivals; assignments to down machines
// are simply wasted. It is the degrading baseline every dynamic table
// compares against — and the evaluator for "how would my deployed
// schedule have fared under this scenario". An outcome-observing
// policy is still told, as under the static estimators, what each
// step actually played (down machines idle) and completed.
type StaticStrategy struct {
	sc  *Scenario
	pol sched.Policy
}

// NewStatic wraps pol for walks over sc.
func NewStatic(sc *Scenario, pol sched.Policy) *StaticStrategy {
	return &StaticStrategy{sc: sc, pol: pol}
}

// Name implements Strategy.
func (s *StaticStrategy) Name() string { return "static" }

// StaticPolicy implements Strategy: the wrapped policy is its own
// event-free equivalent.
func (s *StaticStrategy) StaticPolicy() (sched.Policy, bool) { return s.pol, true }

// parallelizable defers to the engine's check: walkers share the
// wrapped policy, so an outcome-observing policy pins the fan-out to
// one worker exactly as the static estimators do.
func (s *StaticStrategy) parallelizable() bool { return sim.Parallelizable(s.pol) }

// NewWalker implements Strategy: nil, so the estimator plays the
// wrapped policy on the walk directly.
func (s *StaticStrategy) NewWalker() Walker { return nil }

// AdaptiveStrategy reruns the MSM greedy every step on the currently
// eligible jobs and up machines (core.MSMAlgMasked) — SUU-I-ALG made
// availability-aware. It reads the static probabilities only: the
// hidden regime stays hidden.
type AdaptiveStrategy struct {
	sc *Scenario
}

// NewAdaptive returns the masked-MSM strategy for sc.
func NewAdaptive(sc *Scenario) *AdaptiveStrategy { return &AdaptiveStrategy{sc: sc} }

// Name implements Strategy.
func (s *AdaptiveStrategy) Name() string { return "adaptive" }

// StaticPolicy implements Strategy: with every machine up the masked
// greedy coincides with SUU-I-ALG exactly, which the compiled
// adaptive engine can memoize.
func (s *AdaptiveStrategy) StaticPolicy() (sched.Policy, bool) {
	return &core.AdaptivePolicy{In: s.sc.In}, true
}

func (s *AdaptiveStrategy) parallelizable() bool { return true }

// NewWalker implements Strategy.
func (s *AdaptiveStrategy) NewWalker() Walker { return &adaptiveWalker{in: s.sc.In} }

type adaptiveWalker struct {
	in *model.Instance
}

func (w *adaptiveWalker) Reset() {}

func (w *adaptiveWalker) Assign(st *State) sched.Assignment {
	return core.MSMAlgMasked(w.in, st.Eligible, st.Up)
}
