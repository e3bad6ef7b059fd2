package main

import (
	"suu"
	"suu/internal/model"
	"suu/internal/serve"
	"suu/internal/workload"
)

// newServer starts the server every serve-* workload drives: one
// estimation worker per request, so the only concurrency is the client
// count.
func newServer(e *env) error { return e.startServer(serve.New(serve.Config{Workers: 1})) }

// roundTripEnv wires a round-trip pool into a served environment.
func roundTripEnv(name string, inputs []tripInput, window int) (*env, error) {
	rt := &roundTrips{name: name, inputs: inputs}
	e := &env{name: name, window: window, op: rt.op, replay: rt.replay, check: rt.check, allocs: rt.allocs}
	if err := newServer(e); err != nil {
		return nil, err
	}
	return e, nil
}

// poolCopies is how many instances each stratum of a pool holds: the
// more instances a run cycles through, the less its figures depend on
// the draw of any one of them.
const poolCopies = 4

// setupServeCold builds the serve-cold pool: instances of five
// precedence classes at n ∈ {32, 48, 96}, m ∈ {8, 12} and four
// probability shapes (poolCopies per combination), solved by "auto"
// and estimated with 2000 repetitions. The class varies fastest, so
// consecutive ops cross the LP, chains and forest pipelines.
func setupServeCold(seed int64) (*env, error) {
	classes := []string{"independent", "chains", "out-forest", "in-forest", "mixed-forest"}
	ns, ms := []int{32, 48, 96}, []int{8, 12}
	strata := len(classes) * len(poolShapes) * len(ms) * len(ns)
	var inputs []tripInput
	for k := 0; k < poolCopies*strata; k++ {
		c := workload.Config{
			Jobs:     ns[k/40%3],
			Machines: ms[k/20%2],
			Shape:    poolShapes[k/5%4],
			Seed:     instanceSeed(seed, k),
		}
		ti, err := encodeInstance(generate(classes[k%5], c))
		if err != nil {
			return nil, err
		}
		ti.solver, ti.reps = "auto", 2000
		inputs = append(inputs, ti)
	}
	return roundTripEnv("serve-cold", inputs, len(inputs))
}

// setupAdaptiveExact builds the adaptive-exact pool, which bypasses
// the LP: the adaptive policy (200 repetitions) on independent and
// chains instances at n ∈ {16, 24, 32}, m = 8, interleaved with the
// exact optimal regimen (2000 repetitions) at n ∈ {8, 10},
// m ∈ {3, 4}, each over four probability shapes (poolCopies per
// combination).
func setupAdaptiveExact(seed int64) (*env, error) {
	classes := []string{"independent", "chains"}
	var adaptive, optimal []tripInput
	k := 0
	add := func(pool *[]tripInput, class string, c workload.Config, solver string, reps int) error {
		c.Seed = instanceSeed(seed, k)
		k++
		ti, err := encodeInstance(generate(class, c))
		if err != nil {
			return err
		}
		if solver == "adaptive" {
			// The adaptive reply carries no lower bound, so the
			// makespan ratio uses the certified LP bound.
			if ti.lb, err = lowerBound(ti.in); err != nil {
				return err
			}
		}
		ti.solver, ti.reps = solver, reps
		*pool = append(*pool, ti)
		return nil
	}
	for rep := 0; rep < poolCopies; rep++ {
		for _, n := range []int{16, 24, 32} {
			for _, shape := range poolShapes {
				for _, class := range classes {
					if err := add(&adaptive, class, workload.Config{Jobs: n, Machines: 8, Shape: shape}, "adaptive", 200); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, n := range []int{8, 10} {
			for _, m := range []int{3, 4} {
				for _, shape := range poolShapes {
					for _, class := range classes {
						if err := add(&optimal, class, workload.Config{Jobs: n, Machines: m, Shape: shape}, "optimal", 2000); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	// Spread the adaptive ops evenly among the optimal ones, so every
	// stretch of the loop runs the same mix.
	var inputs []tripInput
	for a, o := 0, 0; a < len(adaptive) || o < len(optimal); {
		if o == len(optimal) || (a < len(adaptive) && (a+1)*len(optimal) <= (o+1)*len(adaptive)) {
			inputs = append(inputs, adaptive[a])
			a++
		} else {
			inputs = append(inputs, optimal[o])
			o++
		}
	}
	return roundTripEnv("adaptive-exact", inputs, len(inputs))
}

// publicInstance rebuilds in through the public API.
func publicInstance(in *model.Instance) (*suu.Instance, error) {
	var edges [][2]int
	for u := 0; u < in.N; u++ {
		for _, v := range in.Prec.Succs(u) {
			edges = append(edges, [2]int{u, v})
		}
	}
	return suu.FromMatrix(in.P, edges)
}

// lowerBound is the public certified lower bound of an instance.
func lowerBound(in *model.Instance) (float64, error) {
	x, err := publicInstance(in)
	if err != nil {
		return 0, err
	}
	return suu.LowerBound(x)
}
