package opt

import (
	"maps"
	"math"
	"slices"

	"suu/internal/model"
	"suu/internal/sched"
)

// ExactOblivious computes the expected makespan of an oblivious
// schedule exactly (up to the stated residual), by propagating the
// full probability distribution over unfinished-set states step by
// step. Unlike ExactRegimen this handles time-varying assignments, so
// it evaluates prefixes, tails, and cycled schedules without Monte
// Carlo noise.
//
// The propagation runs until the residual (probability mass on
// unfinished states) falls below eps or horizon steps elapse; the
// returned value then brackets the truth within
// [value, value + residual·tailBound] where tailBound is the crude
// all-machines round-robin completion bound. The second return is the
// residual probability left unfinished at the horizon.
func ExactOblivious(in *model.Instance, o *sched.Oblivious, horizon int, eps float64) (float64, float64, error) {
	if in.N > MaxJobs {
		return 0, 0, ErrTooLarge
	}
	full := uint64(1)<<uint(in.N) - 1
	dist := map[uint64]float64{full: 1}
	expected := 0.0

	for t := 0; t < horizon; t++ {
		states, residual := sortedStates(dist)
		if residual <= eps {
			break
		}
		a := o.At(t)
		next := make(map[uint64]float64, len(dist))
		if p0, ok := dist[0]; ok {
			next[0] = p0
		}
		for _, s := range states {
			if s == 0 {
				continue
			}
			p := dist[s]
			for _, tr := range Transitions(in, s, a) {
				q := p * tr.Prob
				if q > 0 {
					if tr.Next == 0 {
						// Completion happened during step t (1-indexed t+1).
						expected += q * float64(t+1)
					}
					next[tr.Next] += q
				}
			}
		}
		dist = next
	}
	_, residual := sortedStates(dist)
	if residual > 0 {
		// Lower-bound contribution of unfinished runs: they take at
		// least horizon steps.
		expected += residual * float64(horizon)
	}
	if math.IsNaN(expected) {
		residual = 1
	}
	return expected, residual, nil
}

// sortedStates returns dist's states in increasing order and the
// probability on unfinished ones, summed in that order. Every float
// sum over the distribution walks this order: Go randomizes map
// iteration, and summing in map order would change the last bits of
// the result from call to call.
func sortedStates(dist map[uint64]float64) ([]uint64, float64) {
	states := slices.Sorted(maps.Keys(dist))
	residual := 0.0
	for _, s := range states {
		if s != 0 {
			residual += dist[s]
		}
	}
	return states, residual
}
