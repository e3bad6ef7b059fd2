package dyn

import (
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

// State is the scheduling state a dynamic-walk strategy sees at one
// step. It extends sched.State with the scenario's availability
// picture; the hidden regime is deliberately absent.
type State struct {
	// Unfinished[j] reports whether job j has not yet completed.
	Unfinished []bool
	// Eligible[j] reports whether j has arrived, is unfinished, and
	// every predecessor has completed.
	Eligible []bool
	// Arrived[j] reports whether j's release step has passed.
	Arrived []bool
	// Up[i] reports whether machine i is outside every outage.
	Up []bool
	// Step is the 0-based index of the step about to execute.
	Step int
	// Epoch marks steps at which the timeline changed (arrivals
	// landed, an outage boundary passed). Step 0 is always an epoch.
	// The rolling strategy re-solves exactly at epochs.
	Epoch bool
}

// Walker executes one strategy's decisions along a trajectory. A
// walker is owned by a single worker goroutine; Reset is called
// before every repetition.
type Walker interface {
	Reset()
	Assign(st *State) sched.Assignment
}

// env is one worker's side of sim's step walk (it implements
// sim.Env): it replays the scenario's timeline and hidden regime
// chain into the walk's availability masks and, for strategies that
// see the dynamics, serves their walker its State. Regime transitions
// draw from their own stream, so adding a regime never shifts the
// completion randomness.
type env struct {
	tl       *timeline
	regSeed  int64
	reg      sim.Stream
	arrived  []bool
	up       []bool
	scale    []float64
	bad      []bool
	released []int
	evt      int

	w  Walker
	st State
}

func newEnv(in *model.Instance, tl *timeline, regSeed int64) *env {
	e := &env{
		tl:       tl,
		regSeed:  regSeed,
		arrived:  make([]bool, in.N),
		up:       make([]bool, in.M),
		scale:    make([]float64, in.M),
		bad:      make([]bool, in.M),
		released: make([]int, 0, in.N),
	}
	e.st.Arrived, e.st.Up = e.arrived, e.up
	return e
}

// Reset implements sim.Env: jobs with release 0 arrived, machines up
// unless an outage starts at 0, all regimes good, and repetition
// rep's regime stream (SeedFor(seed, "regime"), rep).
func (e *env) Reset(rep int64) ([]bool, []bool, []float64) {
	for j, at := range e.tl.arrive {
		e.arrived[j] = at == 0
	}
	for i := range e.up {
		e.up[i] = !e.tl.downAt(i, 0)
		e.bad[i] = false
		e.scale[i] = 1
	}
	e.evt = 0
	e.reg.Reseed(e.regSeed, rep)
	if e.w != nil {
		e.w.Reset()
	}
	return e.arrived, e.up, e.scale
}

// Step implements sim.Env.
func (e *env) Step(t int) []int {
	e.released = e.released[:0]
	epoch := t == 0
	for e.evt < len(e.tl.events) && e.tl.events[e.evt] == t {
		epoch = true
		e.evt++
	}
	if epoch && t > 0 {
		for j, at := range e.tl.arrive {
			if at == t {
				e.arrived[j] = true
				e.released = append(e.released, j)
			}
		}
		for i := range e.up {
			e.up[i] = !e.tl.downAt(i, t)
		}
	}
	// One transition draw per regime machine per step, in machine
	// order — a fixed draw schedule, so trajectories stay reproducible
	// whatever the policy does.
	for i, on := range e.tl.regOn {
		if !on {
			continue
		}
		r := e.tl.reg[i]
		u := e.reg.Float64()
		if e.bad[i] {
			e.bad[i] = u >= r.BadToGood
		} else {
			e.bad[i] = u < r.GoodToBad
		}
		e.scale[i] = 1
		if e.bad[i] {
			e.scale[i] = r.Severity
		}
	}
	e.st.Epoch = epoch
	return e.released
}

// Assign makes env the walk's policy for strategies with a walker: it
// extends the walk's state with the availability picture.
func (e *env) Assign(st *sched.State) sched.Assignment {
	e.st.Unfinished, e.st.Eligible, e.st.Step = st.Unfinished, st.Eligible, st.Step
	return e.w.Assign(&e.st)
}
