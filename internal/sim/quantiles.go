package sim

import (
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// MakespanQuantiles runs reps executions and returns the requested
// quantiles of the realized makespan distribution (e.g. 0.5, 0.9,
// 0.99) along with the sample itself. Tail quantiles matter for the
// project-management story: a manager cares about the deadline she can
// promise with 95% confidence, not only the mean. The sample is
// materialized because it is part of the return value; callers that
// only need an estimate at scale can feed a stats.P2Quantile instead.
// Repetition r draws from the same (seed, r) stream as Estimate.
func MakespanQuantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64) ([]float64, []float64) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	est := newEstimator(in, pol, reps)
	w := est.newWorker()
	var rng Stream
	xs := make([]float64, reps)
	for r := 0; r < reps; r++ {
		rng.Reseed(seed, int64(r))
		makespan, _ := w.run(int64(r), maxSteps, &rng)
		xs[r] = float64(makespan)
	}
	out := make([]float64, len(qs))
	for k, q := range qs {
		out[k] = stats.Quantile(xs, q)
	}
	return out, xs
}

// MakespanP2Quantiles estimates the requested quantiles in O(1)
// memory with streaming P² estimators (stats.P2Quantile) instead of
// materializing the sample. P² is order-sensitive and does not merge,
// so the repetitions run sequentially; under the lane engine the
// makespans of each 64-rep group drain into the estimators in lane
// order — which is repetition order under the lane stream remap, the
// exact order the scalar remap oracle produces them one at a time —
// so the estimate depends only on (policy, reps, maxSteps, seed) and
// the engine's stream schedule, never on how samples were packed into
// words.
func MakespanP2Quantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64) []float64 {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	ps := make([]*stats.P2Quantile, len(qs))
	for k, q := range qs {
		ps[k] = stats.NewP2Quantile(q)
	}
	est := newEstimator(in, pol, reps)
	if est.lane {
		w := est.newLaneWorker(seed)
		for glo := 0; glo < reps; glo += LaneWidth {
			cnt := reps - glo
			if cnt > LaneWidth {
				cnt = LaneWidth
			}
			mk, _ := w.runGroup(int64(glo/LaneWidth), cnt, maxSteps)
			for l := 0; l < cnt; l++ {
				for _, p := range ps {
					p.Add(float64(mk[l]))
				}
			}
		}
	} else {
		w := est.newWorker()
		var rng Stream
		for r := 0; r < reps; r++ {
			rng.Reseed(seed, int64(r))
			makespan, _ := w.run(int64(r), maxSteps, &rng)
			for _, p := range ps {
				p.Add(float64(makespan))
			}
		}
	}
	out := make([]float64, len(qs))
	for k, p := range ps {
		out[k] = p.Value()
	}
	return out
}
