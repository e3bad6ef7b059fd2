package opt_test

import (
	"math"
	"testing"

	"suu/internal/core"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/solve"
	"suu/internal/workload"
)

// ExactOblivious sums probabilities over a distribution of states;
// summed in map order, repeated calls on one input disagree in the
// last bits. Every call must return one float64 bit pattern.
func TestExactObliviousBitDeterministic(t *testing.T) {
	in := workload.Chains(workload.Config{Jobs: 10, Machines: 3, Seed: 5}, 3)
	_, res, err := solve.Auto(in, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, ok := res.Policy.(*sched.Oblivious)
	if !ok {
		t.Fatalf("solve.Auto built %T, want *sched.Oblivious", res.Policy)
	}
	seen := map[uint64]int{}
	for k := 0; k < 40; k++ {
		v, _, err := opt.ExactOblivious(in, o, 4000, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		seen[math.Float64bits(v)]++
	}
	if len(seen) != 1 {
		t.Fatalf("40 identical calls returned %d distinct values: %v", len(seen), seen)
	}
}
