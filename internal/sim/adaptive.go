package sim

import (
	"math/bits"

	"suu/internal/model"
	"suu/internal/sched"
)

// The compiled adaptive engine extends the compiled-oblivious idea to
// stationary policies (sched.Memoizable): because such a policy's
// assignment is a pure function of the unfinished set, the estimator
// can walk the scheduling Markov chain once at compile time — the same
// state space opt.Transitions/ClosedStates enumerate exhaustively —
// and memoize, per reachable unfinished-set key, exactly what the
// generic step engine would do in that state: which jobs receive a
// completion draw (in the step engine's machine-scan order), each
// job's combined single-step success probability, the mass the step
// adds, and the successor state for every completion outcome. A
// repetition then becomes a table-driven walk: one array lookup plus
// one uniform draw per trialed job per step, instead of a policy call
// (for MSM-style policies, a full sort of the p_ij pairs) at every
// step.
//
// The walk consumes uniforms in the same order and compares them
// against bit-identical probabilities (the fail products are
// accumulated in machine order, exactly as runState does), so the
// makespan distribution — and therefore every stats.Summary — is
// bit-identical to the generic step engine's at any worker count. The
// table is immutable after compilation, which is what makes a
// compiled adaptive policy safe to share across estimation workers.
//
// Compilation is bounded: the breadth-first walk aborts once it has
// seen more than the state budget (or the transition arrays outgrow
// maxAdaptiveTableEntries), and the estimator falls back transparently
// to the generic step engine. Per-job mass is accumulated per step
// from a precomputed sum, so it can differ from the step engine's
// machine-by-machine accumulation in the last floating-point bits —
// the same latitude the compiled oblivious engine already takes.

// DefaultAdaptiveCompileBudget bounds the reachable-state table.
// Profitability, not memory, sets the default: compiling a state costs
// one policy call, so the table must stay well under reps × makespan
// state-visits for the memoization to win. Instances whose reachable
// space exceeds the budget (e.g. 16+ independent jobs, 2^n states)
// run the generic step engine instead.
const DefaultAdaptiveCompileBudget = 8192

// adaptiveCompileBudget is the active budget; see
// SetAdaptiveCompileBudget.
var adaptiveCompileBudget = DefaultAdaptiveCompileBudget

// maxAdaptiveTableEntries caps the summed successor-array size
// (Σ 2^trialed(s)); states trial at most m jobs, so wide-machine
// instances hit this before the state budget.
const maxAdaptiveTableEntries = 1 << 21

// SetAdaptiveCompileBudget replaces the compiled adaptive engine's
// state budget and returns a func restoring the previous value. A
// budget of 0 disables compilation. Not safe to call concurrently
// with estimation; it exists for tests and for tuning long-running
// harnesses.
func SetAdaptiveCompileBudget(n int) (restore func()) {
	old := adaptiveCompileBudget
	adaptiveCompileBudget = n
	return func() { adaptiveCompileBudget = old }
}

// AdaptiveCompileBudget returns the active state budget.
func AdaptiveCompileBudget() int { return adaptiveCompileBudget }

// adaptState is one memoized state: the digest of a generic-engine
// step in that state, plus the successor index for every completion
// outcome.
type adaptState struct {
	// jobs lists the jobs that receive a completion draw, in the step
	// engine's order (first machine touch). succ[k] is job jobs[k]'s
	// combined success probability 1-Π(1-p_ij) with the product taken
	// in machine order; mass[k] is the Σ p_ij the step adds to it.
	jobs []int32
	succ []float64
	mass []float64
	// next[sub] is the state index reached when exactly the jobs whose
	// bits are set in sub (indexing jobs, not global job ids) complete;
	// -1 marks the terminal all-finished state.
	next []int32
	// terminal marks states with at most two unfinished jobs — the
	// closed-form layer the walks exit into when splicing is on (see
	// splice.go).
	terminal bool
}

// compiledAdaptive is the immutable compiled policy shared read-only
// by every estimation worker.
type compiledAdaptive struct {
	in     *model.Instance
	states []adaptState
	n      int
	// splice snapshots the TerminalSplice knob at compile time: when
	// set, walks sample terminal (≤2 unfinished jobs) states in closed
	// form instead of stepping through them.
	splice bool
}

// eligibleMask returns the eligible-job bitmask of unfinished-set s.
func eligibleMask(in *model.Instance, s uint64) uint64 {
	var el uint64
	for j := 0; j < in.N; j++ {
		if s&(1<<uint(j)) == 0 {
			continue
		}
		ok := true
		for _, p := range in.Prec.Preds(j) {
			if s&(1<<uint(p)) != 0 {
				ok = false
				break
			}
		}
		if ok {
			el |= 1 << uint(j)
		}
	}
	return el
}

// compileAdaptive walks the policy's own Markov chain breadth-first
// from the all-unfinished state and memoizes each reachable state.
// It returns nil when the policy is not compilable on this instance:
// more than 64 jobs (no mask), an OutcomeObserver (observation
// feedback is history, which a table cannot carry), or a reachable
// state space over the budget. State 0 is the walk's start (index 0);
// the terminal empty set is the -1 sentinel, not a state.
func compileAdaptive(in *model.Instance, pol sched.Memoizable, budget int) *compiledAdaptive {
	n, m := in.N, in.M
	if n < 1 || n > 64 || budget < 1 {
		return nil
	}
	if _, observes := pol.(sched.OutcomeObserver); observes {
		return nil
	}
	p := in.Flat()
	c := &compiledAdaptive{in: in, n: n, splice: terminalSplice}
	full := uint64(1)<<uint(n) - 1
	idx := map[uint64]int32{full: 0}
	queue := []uint64{full}
	c.states = make([]adaptState, 0, 64)

	unf := make([]bool, n)
	elig := make([]bool, n)
	st := sched.State{Unfinished: unf, Eligible: elig}
	fail := make([]float64, n)
	seen := make([]bool, n)
	order := make([]int32, 0, m)
	entries := 0

	for len(queue) > 0 {
		mask := queue[0]
		queue = queue[1:]
		el := eligibleMask(in, mask)
		for j := 0; j < n; j++ {
			unf[j] = mask&(1<<uint(j)) != 0
			elig[j] = el&(1<<uint(j)) != 0
		}
		st.Step = 0
		a := pol.Assign(&st)

		// Digest the assignment exactly as runState.runFrom would play
		// it: machines on ineligible jobs idle, fail products accumulate
		// in machine order, draw order is first-touch order. seen, not
		// fail[j]==0, marks first touches — a p_ij of exactly 1 zeroes
		// the product and must not re-enroll the job (runFrom uses the
		// same marker, keeping the digests aligned draw for draw).
		order = order[:0]
		for i := 0; i < m && i < len(a); i++ {
			j := a[i]
			if j == sched.Idle || j < 0 || j >= n || !elig[j] {
				continue
			}
			if !seen[j] {
				seen[j] = true
				fail[j] = 1
				order = append(order, int32(j))
			}
			fail[j] *= 1 - p[i*n+j]
		}
		k := len(order)
		// Bound the successor fan-out BEFORE allocating 2^k slots: k is
		// only limited by the machine count, and a wide assignment must
		// fall back to the step engine, not attempt the allocation.
		if k > 20 || entries+(1<<uint(k)) > maxAdaptiveTableEntries {
			return nil
		}
		s := adaptState{
			jobs:     make([]int32, k),
			succ:     make([]float64, k),
			mass:     make([]float64, k),
			next:     make([]int32, 1<<uint(k)),
			terminal: bits.OnesCount64(mask) <= 2,
		}
		copy(s.jobs, order)
		for b, j32 := range order {
			j := int(j32)
			s.succ[b] = 1 - fail[j]
			fail[j] = 0
			seen[j] = false
			mass := 0.0
			for i := 0; i < m && i < len(a); i++ {
				if a[i] == j {
					mass += p[i*n+j]
				}
			}
			s.mass[b] = mass
		}
		entries += 1 << uint(k)

		// Successors: every subset of the trialed jobs may complete.
		// removed[sub] builds incrementally from sub's lowest set bit.
		removed := make([]uint64, 1<<uint(k))
		for sub := 1; sub < 1<<uint(k); sub++ {
			b := bits.TrailingZeros(uint(sub))
			removed[sub] = removed[sub&(sub-1)] | 1<<uint(order[b])
			nxt := mask &^ removed[sub]
			if nxt == 0 {
				s.next[sub] = -1
				continue
			}
			ni, ok := idx[nxt]
			if !ok {
				if len(idx) >= budget {
					return nil
				}
				ni = int32(len(idx))
				idx[nxt] = ni
				queue = append(queue, nxt)
			}
			s.next[sub] = ni
		}
		// next[0] (no completion) stays zero and is never read: the
		// walk short-circuits an empty draw outcome as a self-loop.
		c.states = append(c.states, s)
	}
	return c
}

// adaptRunner is one worker's mutable walk state.
type adaptRunner struct {
	c    *compiledAdaptive
	mass []float64
}

func (c *compiledAdaptive) newRunner() *adaptRunner {
	return &adaptRunner{c: c, mass: make([]float64, c.n)}
}

// run replays one repetition through the table. With splicing off,
// draw-for-draw it performs the same completion trials as the step
// engine, in the same order, against the same probabilities, so the
// makespan distribution is bit-identical; with splicing on, terminal
// (≤2 unfinished jobs) states are sampled in closed form instead (see
// splice.go) — same distribution, different draws. The loop allocates
// nothing.
func (r *adaptRunner) run(_ int64, maxSteps int, rng Rand) (int, bool) {
	states := r.c.states
	for j := range r.mass {
		r.mass[j] = 0
	}
	cur := int32(0)
	splice := r.c.splice
	for t := 0; t < maxSteps; t++ {
		s := &states[cur]
		if splice && s.terminal {
			return r.c.spliceFrom(cur, t, maxSteps, rng, r.mass)
		}
		sub := 0
		for k, j := range s.jobs {
			r.mass[j] += s.mass[k]
			if rng.Float64() < s.succ[k] {
				sub |= 1 << uint(k)
			}
		}
		if sub == 0 {
			// Nothing completed; a state with no trialed jobs is stuck,
			// exactly like the step engine under an all-idle assignment.
			continue
		}
		nxt := s.next[sub]
		if nxt < 0 {
			return t + 1, true
		}
		cur = nxt
	}
	return maxSteps, false
}

func (r *adaptRunner) massView() []float64 { return r.mass }
