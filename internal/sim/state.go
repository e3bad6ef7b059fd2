package sim

import (
	"suu/internal/model"
	"suu/internal/sched"
)

// Env modulates the step walk with scenario dynamics: jobs released
// mid-run, machines that go down, and a per-machine scale on p_ij.
// The walk keeps the masks Reset returns and consults Step at the top
// of every step, before the policy assigns. A nil mask means every job
// released, every machine up, scale 1. An Env belongs to one worker.
type Env interface {
	// Reset prepares repetition rep and returns its step-0 picture:
	// arrived[j], up[i] and scale[i]. The Env updates the returned
	// slices in place as the run advances.
	Reset(rep int64) (arrived, up []bool, scale []float64)
	// Step brings up and scale to step t, marks the jobs released at
	// t as arrived and returns them (none at step 0: Reset covers it).
	Step(t int) (released []int)
}

// runState holds every buffer one simulation needs, allocated once
// and reset per repetition, so the step loop itself performs zero
// allocations. Each worker of EstimateParallel owns one.
type runState struct {
	in   *model.Instance
	p    []float64 // flat row-major probabilities: p[i*n+j]
	n, m int

	unfinished []bool
	eligible   []bool
	predsLeft  []int
	mass       []float64
	fail       []float64
	// seen marks jobs already appended to touched this step (cleared
	// alongside fail in the draw loop). A separate marker, not
	// fail[j]==0: a p_ij of exactly 1 drives the fail product to zero
	// and must not re-enroll the job.
	seen      []bool
	touched   []int
	remaining int

	st sched.State

	// env, when set, supplies the masks below; all three stay nil on
	// static runs.
	env     Env
	arrived []bool
	up      []bool
	scale   []float64

	// Observer support, allocated only when the policy observes.
	observer  sched.OutcomeObserver
	completed []bool
	effective sched.Assignment
}

func newRunState(in *model.Instance, pol sched.Policy) *runState {
	rs := &runState{
		in:         in,
		p:          in.Flat(),
		n:          in.N,
		m:          in.M,
		unfinished: make([]bool, in.N),
		eligible:   make([]bool, in.N),
		predsLeft:  make([]int, in.N),
		mass:       make([]float64, in.N),
		fail:       make([]float64, in.N),
		seen:       make([]bool, in.N),
		touched:    make([]int, 0, in.M),
	}
	rs.st = sched.State{Unfinished: rs.unfinished, Eligible: rs.eligible}
	if obs, ok := pol.(sched.OutcomeObserver); ok {
		rs.observer = obs
		rs.completed = make([]bool, in.N)
		rs.effective = make(sched.Assignment, in.M)
	}
	return rs
}

// reset restores the pristine state of repetition rep: every job
// unfinished, released roots eligible, masses zero.
func (rs *runState) reset(rep int64) {
	if rs.env != nil {
		rs.arrived, rs.up, rs.scale = rs.env.Reset(rep)
	}
	for j := 0; j < rs.n; j++ {
		rs.unfinished[j] = true
		rs.predsLeft[j] = rs.in.Prec.InDeg(j)
		rs.eligible[j] = rs.predsLeft[j] == 0 && (rs.arrived == nil || rs.arrived[j])
		rs.mass[j] = 0
		rs.fail[j] = 0
	}
	rs.remaining = rs.n
}

// runFrom executes pol from step t0 (exclusive of any earlier steps;
// the caller has already seeded unfinished/eligible/predsLeft/mass/
// remaining) until the step cap or completion. It returns the
// makespan — the 1-based index of the step that completed the last
// job, or maxSteps when the cap was hit — and whether every job
// finished. Under an Env, down machines are skipped before their job
// is looked at (so they consume no draw) and each p_ij is scaled by
// scale[i]; a scale of exactly 1 leaves it bit-unchanged. The loop
// body allocates nothing; any allocation comes from the policy's
// Assign or the Env.
func (rs *runState) runFrom(pol sched.Policy, t0, maxSteps int, rng Rand) (int, bool) {
	n, m, p := rs.n, rs.m, rs.p
	eligible, fail, mass := rs.eligible, rs.fail, rs.mass
	arrived, up, scale := rs.arrived, rs.up, rs.scale
	for t := t0; t < maxSteps && rs.remaining > 0; t++ {
		if rs.env != nil {
			for _, j := range rs.env.Step(t) {
				if rs.unfinished[j] && rs.predsLeft[j] == 0 {
					eligible[j] = true
				}
			}
		}
		rs.st.Step = t
		a := pol.Assign(&rs.st)
		rs.touched = rs.touched[:0]
		if rs.observer != nil {
			for j := range rs.completed {
				rs.completed[j] = false
			}
			for i := range rs.effective {
				rs.effective[i] = sched.Idle
			}
		}
		for i := 0; i < m; i++ {
			if up != nil && !up[i] {
				continue
			}
			j := a[i]
			if j == sched.Idle || j < 0 || j >= n || !eligible[j] {
				continue
			}
			if rs.observer != nil {
				rs.effective[i] = j
			}
			if !rs.seen[j] {
				rs.seen[j] = true
				fail[j] = 1
				rs.touched = append(rs.touched, j)
			}
			pv := p[i*n+j]
			if scale != nil {
				pv *= scale[i]
			}
			fail[j] *= 1 - pv
			mass[j] += pv
		}
		for _, j := range rs.touched {
			if rng.Float64() < 1-fail[j] {
				rs.unfinished[j] = false
				eligible[j] = false
				if rs.observer != nil {
					rs.completed[j] = true
				}
				rs.remaining--
				for _, s := range rs.in.Prec.Succs(j) {
					rs.predsLeft[s]--
					if rs.predsLeft[s] == 0 && rs.unfinished[s] && (arrived == nil || arrived[s]) {
						eligible[s] = true
					}
				}
			}
			fail[j] = 0
			rs.seen[j] = false
		}
		if rs.observer != nil {
			rs.observer.Observe(rs.effective, rs.completed)
		}
		if rs.remaining == 0 {
			return t + 1, true
		}
	}
	return maxSteps, rs.remaining == 0
}

// Runner executes many simulations of one policy on one instance,
// reusing every buffer across runs. It is the allocation-free core
// that Estimate and EstimateParallel build on; use it directly when
// driving repetitions with custom per-run logic.
//
// A Runner is not safe for concurrent use; give each goroutine its
// own.
type Runner struct {
	rs  *runState
	pol sched.Policy
}

// NewRunner returns a runner for pol on in.
func NewRunner(in *model.Instance, pol sched.Policy) *Runner {
	return &Runner{rs: newRunState(in, pol), pol: pol}
}

// Run executes one simulation of at most maxSteps steps, returning
// the makespan and whether every job completed. The step loop
// performs zero heap allocations (given an allocation-free policy).
func (r *Runner) Run(maxSteps int, rng Rand) (makespan int, completed bool) {
	return r.run(0, maxSteps, rng)
}

// run adapts Runner to repRunner; rep reaches only the Env.
func (r *Runner) run(rep int64, maxSteps int, rng Rand) (int, bool) {
	r.rs.reset(rep)
	return r.rs.runFrom(r.pol, 0, maxSteps, rng)
}

// Mass returns the per-job mass accumulated by the most recent Run.
// The slice is a view into the runner's buffer: valid until the next
// Run, and must not be modified.
func (r *Runner) Mass() []float64 { return r.rs.mass }
