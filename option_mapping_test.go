package suu

import (
	"testing"
)

// The unified vocabulary: every option constructor in the package
// must return the single Option type. This assignment is the
// compile-time check — a constructor drifting to its own option type
// breaks the build here.
var allOptions = []Option{
	WithSeed(7),
	WithSimSeed(9),
	WithMassTarget(0.4),
	WithReplicationFactor(8),
	WithDelayTries(32),
	WithOptimism(0.3),
	WithMaxSteps(12345),
	WithWorkers(3),
	WithSolver("adaptive"),
}

// TestOptionMapping pins each option to the field it configures, and
// the defaults to their documented values.
func TestOptionMapping(t *testing.T) {
	def := buildOptions(nil)
	if def.maxSteps != 1_000_000 || def.simSeed != 1 || def.workers != 1 || def.solver != "" {
		t.Fatalf("defaults drifted: %+v", def)
	}
	o := buildOptions(allOptions)
	if o.par.Seed != 7 {
		t.Errorf("WithSeed: par.Seed = %d", o.par.Seed)
	}
	if o.simSeed != 9 {
		t.Errorf("WithSimSeed applied after WithSeed: simSeed = %d", o.simSeed)
	}
	if o.par.MassTarget != 0.4 {
		t.Errorf("WithMassTarget: %v", o.par.MassTarget)
	}
	if o.par.ReplicationFactor != 8 {
		t.Errorf("WithReplicationFactor: %d", o.par.ReplicationFactor)
	}
	if o.par.DelayTries != 32 {
		t.Errorf("WithDelayTries: %d", o.par.DelayTries)
	}
	if o.par.Optimism != 0.3 {
		t.Errorf("WithOptimism: %v", o.par.Optimism)
	}
	if o.maxSteps != 12345 {
		t.Errorf("WithMaxSteps: %d", o.maxSteps)
	}
	if o.workers != 3 {
		t.Errorf("WithWorkers: %d", o.workers)
	}
	if o.solver != "adaptive" {
		t.Errorf("WithSolver: %q", o.solver)
	}
	// WithSeed is the one-knob seed: it must set both the construction
	// and the simulation seed when used alone.
	s := buildOptions([]Option{WithSeed(42)})
	if s.par.Seed != 42 || s.simSeed != 42 {
		t.Errorf("WithSeed alone: par.Seed=%d simSeed=%d, want 42/42", s.par.Seed, s.simSeed)
	}
}
