package main

import (
	"fmt"
	"time"

	"suu"
	"suu/internal/dyn"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/solve"
	"suu/internal/workload"
)

// dynReps is the repetition count of every dynamic op.
const dynReps = 200

// dynBursts are the failure-burst regimes (stationary bad fraction,
// persistence, severity on every machine), as in experiment T15.
var dynBursts = []struct{ p0, alpha, severity float64 }{
	{0, 0, 0},
	{0.15, 0.90, 0.35},
	{0.30, 0.95, 0.10},
}

// dynStrategies are the three scenario estimates an op can run.
var dynStrategies = []string{"static", "adaptive", "rolling"}

// dynScenario is one pooled scenario: an instance with its events and
// the schedule the static strategy deploys unchanged.
type dynScenario struct {
	in        *model.Instance
	sc        *suu.Scenario
	sched     *suu.Schedule
	policy    sched.Policy // the same schedule, for the traced replay
	spacing   int
	burst     int
	buildSeed int64
	lb        float64
}

// dynamicLoad is the dynamic workload: library calls on
// suu.NewScenario, because the server has no scenario endpoint. The
// pool holds poolCopies scenarios per combination of independent and
// chains instances at 16×4 and 24×6, arrival spacing 0 or 2, and the
// three burst regimes; every scenario takes machine 0 down for steps
// [4, 10).
type dynamicLoad struct {
	pool []dynScenario
}

// pick maps op i to its scenario, strategy and simulation seed. The
// strategy varies fastest, so every stretch of the loop runs the same
// mix of cheap and expensive estimates. The seed repeats with the
// window: nothing on this path caches, so every pass over the window
// is the same work, and a slice of whole windows costs the same in
// every run of a seed.
func (dl *dynamicLoad) pick(i int) (k, strategy int, simSeed int64) {
	window := len(dl.pool) * len(dynStrategies)
	return i / len(dynStrategies) % len(dl.pool), i % len(dynStrategies), int64(i%window) + 1
}

type dynSample struct {
	k, strategy int
	simSeed     int64
	est         suu.Estimate
}

func setupDynamic(seed int64) (*env, error) {
	dl := &dynamicLoad{}
	k := 0
	for rep := 0; rep < poolCopies; rep++ {
		for _, class := range []string{"independent", "chains"} {
			for _, size := range [][2]int{{16, 4}, {24, 6}} {
				for spacing := 0; spacing <= 2; spacing += 2 {
					for b := range dynBursts {
						// Uniform probabilities, as in T15: the heavy-tailed
						// shapes make a scenario's cost swing with the draw.
						c := workload.Config{Jobs: size[0], Machines: size[1], Seed: instanceSeed(seed, k)}
						d, err := newDynScenario(generate(class, c), spacing, b, instanceSeed(seed, k))
						if err != nil {
							return nil, err
						}
						dl.pool = append(dl.pool, d)
						k++
					}
				}
			}
		}
	}
	return &env{name: "dynamic", window: len(dl.pool) * len(dynStrategies), op: dl.op, replay: dl.replay,
		traceSetup: dl.traceSetup, check: dl.check}, nil
}

func newDynScenario(in *model.Instance, spacing, burst int, buildSeed int64) (dynScenario, error) {
	d := dynScenario{in: in, spacing: spacing, burst: burst, buildSeed: buildSeed}
	x, err := publicInstance(in)
	if err != nil {
		return d, err
	}
	d.sc = suu.NewScenario(x)
	for j, at := range workload.ArrivalRamp(in.N, spacing) {
		if at > 0 {
			d.sc.ArriveAt(j, at)
		}
	}
	d.sc.Breakdown(0, 4, 10)
	if b := dynBursts[burst]; b.p0 > 0 {
		d.sc.Burst(-1, b.p0, b.alpha, b.severity)
	}
	if err := d.sc.Validate(); err != nil {
		return d, err
	}
	if d.sched, err = suu.Solve(x, suu.WithSeed(buildSeed)); err != nil {
		return d, err
	}
	d.lb, err = suu.LowerBound(x)
	return d, err
}

// traceSetup builds, for the replay, the same static schedule each
// scenario deploys, as a policy internal/dyn accepts.
func (dl *dynamicLoad) traceSetup() error {
	for k := range dl.pool {
		d := &dl.pool[k]
		_, res, err := solve.Auto(d.in, buildParams(d.buildSeed))
		if err != nil {
			return err
		}
		d.policy = res.Policy
	}
	return nil
}

// estimate runs one scenario estimate with the given worker count.
func (d *dynScenario) estimate(strategy int, simSeed int64, workers int) (suu.Estimate, error) {
	opts := []suu.Option{suu.WithSeed(d.buildSeed), suu.WithSimSeed(simSeed), suu.WithWorkers(workers)}
	switch dynStrategies[strategy] {
	case "static":
		return d.sc.EstimateMakespan(d.sched, dynReps, opts...)
	case "adaptive":
		return d.sc.EstimateAdaptive(dynReps, opts...)
	}
	return d.sc.EstimateRolling(dynReps, opts...)
}

func (dl *dynamicLoad) op(c *client, i int) opRecord {
	rec := opRecord{idx: i}
	k, strategy, simSeed := dl.pick(i)
	start := time.Now()
	est, err := dl.pool[k].estimate(strategy, simSeed, 1)
	rec.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		rec.failf("dynamic", failCall, dynStrategies[strategy], "%v", err)
		return rec
	case est.Incomplete != 0:
		rec.failf("dynamic", failCheck, "incomplete", "%d repetitions hit the step cap", est.Incomplete)
		return rec
	case est.Runs != dynReps:
		rec.failf("dynamic", failCheck, "runs", "%d repetitions, want %d", est.Runs, dynReps)
		return rec
	}
	rec.reps = est.Runs
	rec.ratio = est.Mean / dl.pool[k].lb
	if c.env.sampled(i) {
		rec.sample = &dynSample{k: k, strategy: strategy, simSeed: simSeed, est: est}
	}
	return rec
}

// check re-runs a sampled op at WithWorkers(2): scenario estimates are
// bit-identical at any worker count.
func (dl *dynamicLoad) check(s any) (string, error) {
	smp := s.(*dynSample)
	est, err := dl.pool[smp.k].estimate(smp.strategy, smp.simSeed, 2)
	if err != nil {
		return "workers", err
	}
	a, b := smp.est, est
	a.Engine.Workers, b.Engine.Workers = 0, 0
	if a != b {
		return "estimate", fmt.Errorf("WithWorkers(1) %+v, WithWorkers(2) %+v", smp.est, est)
	}
	return "", nil
}

// replay re-runs op i through internal/dyn: the strategy's
// construction (dyn.NewRolling solves eagerly) and dyn.EstimateInfo.
func (dl *dynamicLoad) replay(c *client, i int, rec *opRecord, root int) {
	k, strategy, simSeed := dl.pick(i)
	d, name := &dl.pool[k], dynStrategies[strategy]
	o := &layerObs{dynamic: true, reps: dynReps}
	rec.layer = o
	sc := dyn.New(d.in)
	for j, at := range workload.ArrivalRamp(d.in.N, d.spacing) {
		if at > 0 {
			sc.ArriveAt(j, at)
		}
	}
	sc.Breakdown(0, 4, 10)
	if b := dynBursts[d.burst]; b.p0 > 0 {
		sc.Burst(-1, b.p0, b.alpha, b.severity)
	}
	var strat dyn.Strategy
	switch name {
	case "static":
		strat = dyn.NewStatic(sc, d.policy)
	case "adaptive":
		strat = dyn.NewAdaptive(sc)
	default:
		var err error
		c.tr.do("dyn.rolling_setup", i, root, func() { strat, err = dyn.NewRolling(sc, "", buildParams(d.buildSeed)) })
		if err != nil {
			rec.failf("dynamic", failCheck, "replay.rolling", "%v", err)
			return
		}
	}
	var err error
	o.estimateMS = c.tr.do("dyn.estimate."+name, i, root, func() {
		_, _, _, err = dyn.EstimateInfo(sc, strat, dynReps, maxSteps, simSeed, 1)
	})
	if err != nil {
		rec.failf("dynamic", failCheck, "replay.estimate", "%v", err)
	}
}
