package main

import (
	"math"
	"math/rand"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
)

// replayStages re-runs an LP-backed construction through the core's
// exported stage entry points, in pipeline order, as children of one
// solve.stages span. The delay search draws from the replay's own RNG,
// so the replay times the stages and is never compared with the served
// schedule. Forests have no finer exported split: the whole pipeline is
// one core.forest span, with the chain decomposition timed beside it.
// Other solvers (adaptive, optimal) have no stages.
func replayStages(t *tracer, op, root int, in *model.Instance, solverID string, par core.Params, o *layerObs) error {
	var err error
	switch solverID {
	case "lp-oblivious", "chains":
		st := t.begin("solve.stages", op, root)
		err = replayLPPipeline(t, op, st, in, solverID == "chains", par, o)
		t.end(st)
	case "forest":
		t.do("dag.decomp", op, root, func() { in.Prec.ChainDecomposition() })
		st := t.begin("solve.stages", op, root)
		t.do("core.forest", op, st, func() { _, err = core.SUUForest(in, par) })
		t.end(st)
	}
	return err
}

// replayLPPipeline runs LP, rounding, (for chains) the pseudo-schedule
// and delay search, and replication, each as a span under parent. The
// glue between them — packing, flattening, compaction — is left to the
// build's self time.
func replayLPPipeline(t *tracer, op, parent int, in *model.Instance, chained bool, par core.Params, o *layerObs) error {
	var (
		chains [][]int
		frac   *core.FracSolution
		err    error
	)
	if chained {
		if chains, err = in.Prec.Chains(); err != nil {
			return err
		}
		o.lpMS = t.do("core.lp", op, parent, func() { frac, err = core.SolveLP1(in, chains, par.MassTarget) })
	} else {
		jobs := make([]int, in.N)
		for j := range jobs {
			jobs[j] = j
		}
		o.lpMS = t.do("core.lp", op, parent, func() { frac, err = core.SolveLP2(in, jobs, par.MassTarget) })
	}
	if err != nil {
		return err
	}
	o.lpPivots = frac.Iterations
	var ints *core.IntSolution
	t.do("core.round", op, parent, func() { ints, err = core.RoundLP(in, frac, par.MassTarget) })
	if err != nil {
		return err
	}
	var prefix *sched.Oblivious
	if chained {
		var pseudo *sched.Pseudo
		var delays []int
		t.do("core.delays", op, parent, func() {
			pseudo = core.BuildPseudo(in, chains, ints.X)
			delays, _ = pseudo.BestDelays(pseudo.MaxLoad(), par.DelayTries, rand.New(newSplitMix(par.Seed)))
		})
		prefix = pseudo.WithDelays(delays).Flatten().Compact()
	} else {
		prefix = core.PackSequential(in, ints.X)
	}
	t.do("core.replicate", op, parent, func() { prefix.Replicate(sigma(par, in.N)) })
	return nil
}

// splitMix is a SplitMix64 rand.Source64, seeded as the core seeds
// its own. The build's delay search draws from SplitMix64 as well, so
// the replayed stage costs what the build's does.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix {
	return &splitMix{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (s *splitMix) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix) Seed(seed int64) { *s = *newSplitMix(seed) }

// sigma is the construction's replication factor
// ReplicationFactor·⌈log₂ n⌉ (⌈log₂ n⌉ read as 1 for n ≤ 2, and σ at
// least 1).
func sigma(par core.Params, n int) int {
	l := 1
	if n > 2 {
		l = int(math.Ceil(math.Log2(float64(n))))
	}
	if s := par.ReplicationFactor * l; s > 1 {
		return s
	}
	return 1
}
