package suu

import (
	"strings"
	"testing"
)

func parityInstance() *Instance {
	x := NewInstance(6, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			x.SetProb(i, j, 0.2+0.1*float64(i+j)/8)
		}
	}
	if err := x.AddPrecedence(0, 2); err != nil {
		panic(err)
	}
	if err := x.AddPrecedence(1, 3); err != nil {
		panic(err)
	}
	return x
}

// The redesigned Adaptive/Learning and their Must* shims must produce
// bit-identical schedules and estimates — the Must forms ARE the old
// call paths.
func TestMustWrappersParity(t *testing.T) {
	x := parityInstance()
	a1, err := Adaptive(x)
	if err != nil {
		t.Fatal(err)
	}
	a2 := MustAdaptive(x)
	e1, err := a1.EstimateMakespan(x, 300, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := a2.EstimateMakespan(x, 300, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("Adaptive vs MustAdaptive diverged: %+v vs %+v", e1, e2)
	}
	l1, err := Learning(x, WithOptimism(0.5))
	if err != nil {
		t.Fatal(err)
	}
	l2 := MustLearning(x, WithOptimism(0.5))
	if l1.Kind != l2.Kind || l1.Guarantee != l2.Guarantee {
		t.Fatalf("Learning vs MustLearning metadata diverged")
	}
	bad := NewInstance(2, 1) // job 1 has no capable machine
	bad.SetProb(0, 0, 0.5)
	if _, err := Adaptive(bad); err == nil {
		t.Fatal("Adaptive accepted invalid instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdaptive did not panic on invalid instance")
		}
	}()
	MustAdaptive(bad)
}

// An estimate must carry its engine record, and fanning it out over
// workers must change nothing but the record's worker count.
func TestEstimateEngineRecordWorkerInvariance(t *testing.T) {
	x := parityInstance()
	s, err := Solve(x, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSimSeed(11), WithMaxSteps(100000)}
	e1, err := s.EstimateMakespan(x, 400, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Engine.Name == "" || e1.Engine.Workers != 1 {
		t.Fatalf("engine record missing: %+v", e1.Engine)
	}
	// Fanning out must not change a bit beyond the worker count.
	e4, err := s.EstimateMakespan(x, 400, WithSimSeed(11), WithMaxSteps(100000), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	e4.Engine.Workers = e1.Engine.Workers
	if e1 != e4 {
		t.Fatalf("WithWorkers changed the estimate: %+v vs %+v", e1, e4)
	}
}

// The regression pin of the scenario layer: a Scenario with zero
// events must be bit-identical to the static path — schedules,
// estimates and engine records — at any worker count.
func TestScenarioZeroEventBitIdentical(t *testing.T) {
	x := parityInstance()
	s, err := Solve(x, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(x)
	if !sc.Static() {
		t.Fatal("event-free scenario not Static")
	}
	for _, workers := range []int{1, 4} {
		opts := []Option{WithSimSeed(2), WithWorkers(workers)}
		want, err := s.EstimateMakespan(x, 500, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.EstimateMakespan(s, 500, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: scenario zero-event diverged: %+v vs %+v", workers, got, want)
		}
		if got.Engine.Name == "dynamic-step" {
			t.Fatal("zero-event scenario ran the dynamic walk")
		}
		// Rolling with the same seed must reproduce Solve exactly.
		roll, err := sc.EstimateRolling(500, WithSeed(7), WithSimSeed(2), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if roll != want {
			t.Fatalf("workers=%d: zero-event rolling diverged from Solve: %+v vs %+v", workers, roll, want)
		}
	}
}

// Public smoke test of a genuinely dynamic scenario: events delay
// completion, the dynamic engine is reported, worker counts do not
// change results, and builder errors surface.
func TestScenarioDynamicPublic(t *testing.T) {
	x := parityInstance()
	s, err := Solve(x, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(x).
		ArriveAt(5, 6).
		Breakdown(0, 2, 8).
		Burst(-1, 0.2, 0.9, 0.4)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	obl, err := sc.EstimateMakespan(s, 400, WithSimSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if obl.Engine.Name != "dynamic-step" {
		t.Fatalf("engine %q, want dynamic-step", obl.Engine.Name)
	}
	ad, err := sc.EstimateAdaptive(400, WithSimSeed(3), WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	roll, err := sc.EstimateRolling(400, WithSeed(7), WithSimSeed(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if ad.Mean <= 0 || roll.Mean <= 0 {
		t.Fatalf("degenerate means: adaptive %v rolling %v", ad.Mean, roll.Mean)
	}
	ad1, err := sc.EstimateAdaptive(400, WithSimSeed(3), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ad.Engine.Workers = ad1.Engine.Workers
	if ad != ad1 {
		t.Fatalf("adaptive estimate depends on workers: %+v vs %+v", ad, ad1)
	}
	if _, err := sc.EstimateRolling(50, WithSolver("no-such")); err == nil {
		t.Fatal("unknown solver accepted")
	}
	bad := NewScenario(x).ArriveAt(99, 1)
	if _, err := bad.EstimateAdaptive(50); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("builder error not surfaced: %v", err)
	}
}
