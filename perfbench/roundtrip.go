package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"suu/internal/core"
	"suu/internal/fingerprint"
	"suu/internal/model"
	"suu/internal/serve"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/workload"
)

// tripInput is one pooled instance of a round-trip workload.
type tripInput struct {
	in     *model.Instance // decoded from raw, exactly as the server sees it
	raw    string          // the instance JSON sent inline
	solver string          // the request's solver field
	reps   int
	// lb is a certified lower bound the benchmark computed, used when
	// the solve reply carries neither lower_bound nor exact_value.
	lb float64
}

// roundTrips is the op shape of serve-cold and adaptive-exact: submit
// a pooled instance inline to POST /v1/solve with a construction seed
// no earlier op used — so its solve key, schedule id, basis key and
// engine key are new to the server and every cache misses — then
// estimate the returned schedule_id.
type roundTrips struct {
	name   string
	inputs []tripInput
}

// tripSample is what a sampled op keeps for the direct re-run.
type tripSample struct {
	k             int
	seed, simSeed int64
	solve         serve.SolveResult
	estimate      serve.EstimateResult
}

type reply[T any] struct {
	Result json.RawMessage `json:"result"`
	Meta   serve.Meta      `json:"meta"`
	parsed T
}

// decodeReply parses a 200 reply into its result and meta.
func decodeReply[T any](body []byte) (reply[T], error) {
	var r reply[T]
	if err := json.Unmarshal(body, &r); err != nil {
		return r, err
	}
	return r, json.Unmarshal(r.Result, &r.parsed)
}

func encodeInstance(in *model.Instance) (tripInput, error) {
	raw, err := json.Marshal(in)
	if err != nil {
		return tripInput{}, err
	}
	dec := &model.Instance{}
	if err := dec.UnmarshalJSON(raw); err != nil {
		return tripInput{}, err
	}
	return tripInput{in: dec, raw: string(raw)}, nil
}

// request sends one request of an op and records it; ok is false when
// the op failed (the record says why).
func (c *client) request(rec *opRecord, endpoint, path string, body []byte) ([]byte, bool) {
	code, data, obs, err := c.post(endpoint, path, body)
	rec.reqs = append(rec.reqs, obs)
	rec.ms += obs.ms()
	switch {
	case err != nil:
		rec.failf(c.env.name, failTransport, endpoint, "%v", err)
		return nil, false
	case code != 200:
		rec.unknown = rec.unknown || unknownRef(data)
		rec.failf(c.env.name, failNon200, endpoint, "status %d: %s", code, data)
		return nil, false
	}
	return data, true
}

func (rt *roundTrips) op(c *client, i int) opRecord {
	rec := opRecord{idx: i}
	k := i % len(rt.inputs)
	in := rt.inputs[k]
	seed, simSeed := int64(i)+1, int64(i)+1
	body := `{"solver":` + strconv.Quote(in.solver) + `,"seed":` + strconv.FormatInt(seed, 10) + `,"instance":` + in.raw + `}`
	data, ok := c.request(&rec, "serve.solve", "/v1/solve", []byte(body))
	if !ok {
		return rec
	}
	sr, err := decodeReply[serve.SolveResult](data)
	if err != nil {
		rec.failf(rt.name, failCheck, "solve.body", "%v", err)
		return rec
	}
	rec.reqs[0].meta = sr.Meta
	sol := sr.parsed
	body = fmt.Sprintf(`{"schedule_id":%q,"reps":%d,"sim_seed":%d}`, sol.ScheduleID, in.reps, simSeed)
	if data, ok = c.request(&rec, "serve.estimate", "/v1/estimate", []byte(body)); !ok {
		return rec
	}
	er, err := decodeReply[serve.EstimateResult](data)
	if err != nil {
		rec.failf(rt.name, failCheck, "estimate.body", "%v", err)
		return rec
	}
	rec.reqs[1].meta = er.Meta
	est := er.parsed
	if !er.Meta.Cached && !er.Meta.Coalesced {
		rec.reps = est.Reps
	}
	checkEstimate(&rec, rt.name, sol, est)
	lb := sol.LowerBound
	if lb <= 0 {
		lb = sol.ExactValue
	}
	if lb <= 0 {
		lb = in.lb
	}
	if lb > 0 {
		rec.ratio = est.Mean / lb
	}
	if c.env.sampled(i) {
		rec.sample = &tripSample{k: k, seed: seed, simSeed: simSeed, solve: sol, estimate: est}
	}
	return rec
}

// checkEstimate applies the output checks every estimate reply must
// pass: it names the solved schedule, no repetition hit the step cap,
// the mean respects the certified lower bound, and an optimal
// schedule's mean agrees with its exact value.
func checkEstimate(rec *opRecord, name string, sol serve.SolveResult, est serve.EstimateResult) {
	switch {
	case est.ScheduleID != sol.ScheduleID:
		rec.failf(name, failCheck, "schedule_id", "estimate names %q, solve returned %q", est.ScheduleID, sol.ScheduleID)
	case est.Incomplete != 0:
		rec.failf(name, failCheck, "incomplete", "%d repetitions hit the step cap", est.Incomplete)
	case sol.LowerBound > 0 && est.Mean < sol.LowerBound:
		rec.failf(name, failCheck, "mean", "mean %v below the certified lower bound %v", est.Mean, sol.LowerBound)
	case sol.Solver == "optimal" && math.Abs(est.Mean-sol.ExactValue) > 5*est.HalfWidth95:
		rec.failf(name, failCheck, "mean", "mean %v is more than 5 half-widths (%v) from exact_value %v",
			est.Mean, est.HalfWidth95, sol.ExactValue)
	}
}

// resolveSolver maps a request's solver field to the registry solver
// the server builds ("auto" dispatches on the precedence class).
func resolveSolver(name string, in *model.Instance) (solve.Solver, error) {
	if name == "auto" {
		return solve.Strongest(in.Prec.Classify())
	}
	sol, ok := solve.Get(name)
	if !ok {
		return solve.Solver{}, fmt.Errorf("unknown solver %q", name)
	}
	return sol, nil
}

// scheduleID recomputes the served schedule id: the content
// fingerprint of the solve key document.
func scheduleID(in *model.Instance, solver string, seed int64) string {
	return fingerprint.JSON(struct {
		Kind     string `json:"kind"`
		Instance string `json:"instance"`
		Solver   string `json:"solver"`
		Seed     int64  `json:"seed"`
	}{"solve", serve.InstanceKey(in), solver, seed}, 8)
}

func buildParams(seed int64) core.Params {
	par := core.DefaultParams()
	par.Seed = seed
	return par
}

// direct builds a schedule and compiles its engine through the
// libraries, as the server does for a solve request with this solver
// field and construction seed.
func direct(in *model.Instance, solver string, seed int64) (solve.Solver, *solve.Result, *sim.Prepared, error) {
	sol, err := resolveSolver(solver, in)
	if err != nil {
		return sol, nil, nil, err
	}
	res, err := sol.Build(in, buildParams(seed))
	if err != nil {
		return sol, nil, nil, err
	}
	return sol, res, sim.Prepare(in, res.Policy), nil
}

// check re-runs a sampled op through solve.Get(id).Build and
// sim.Prepare(...).EstimateParallelInfo and compares the fields the
// server must reproduce bit for bit (lp_value to a relative 1e-9: a
// warm-started re-solve may differ in the last ulp).
func (rt *roundTrips) check(s any) (string, error) {
	ts := s.(*tripSample)
	in := rt.inputs[ts.k]
	return checkDirect(in.in, in.solver, ts.seed, ts.simSeed, ts.solve, ts.estimate)
}

// checkDirect re-runs one served solve and estimate directly.
func checkDirect(in *model.Instance, solver string, seed, simSeed int64, sol serve.SolveResult, est serve.EstimateResult) (string, error) {
	s, res, prep, err := direct(in, solver, seed)
	if err != nil {
		return "solve", err
	}
	sum, _, eng := prep.EstimateParallelInfo(est.Reps, maxSteps, simSeed, 1)
	type field struct {
		name      string
		got, want any
	}
	for _, f := range []field{
		{"schedule_id", sol.ScheduleID, scheduleID(in, s.ID, seed)},
		{"prefix_len", sol.PrefixLen, res.PrefixLen},
		{"reps", est.Reps, sum.N},
		{"mean", est.Mean, sum.Mean},
		{"std_dev", est.StdDev, sum.StdDev},
		{"min", est.Min, sum.Min},
		{"max", est.Max, sum.Max},
		{"engine", est.Engine, eng.Engine},
	} {
		if f.got != f.want {
			return f.name, fmt.Errorf("served %v, direct %v", f.got, f.want)
		}
	}
	if d := math.Abs(sol.LPValue - res.LPValue); d > 1e-9*math.Abs(res.LPValue) {
		return "lp_value", fmt.Errorf("served %v, direct %v", sol.LPValue, res.LPValue)
	}
	return "", nil
}

// allocs re-runs a sampled op's estimate and returns its allocations
// per repetition.
func (rt *roundTrips) allocs(s any) float64 {
	ts := s.(*tripSample)
	in := rt.inputs[ts.k]
	return estimateAllocs(in.in, in.solver, ts.seed, ts.simSeed, ts.estimate.Reps)
}

// estimateAllocs returns the heap allocations per repetition of one
// estimate, run alone.
func estimateAllocs(in *model.Instance, solver string, seed, simSeed int64, reps int) float64 {
	_, _, prep, err := direct(in, solver, seed)
	if err != nil {
		return 0
	}
	return allocsPerRep(reps, func() { prep.EstimateParallelInfo(reps, maxSteps, simSeed, 1) })
}

// replay re-runs op i stage by stage: decode, fingerprint, the
// registry build, the build's pipeline stages, then the engine compile
// and the estimate on the built schedule.
func (rt *roundTrips) replay(c *client, i int, rec *opRecord, root int) {
	in := rt.inputs[i%len(rt.inputs)]
	seed, simSeed := int64(i)+1, int64(i)+1
	t := c.tr
	o := &layerObs{}
	rec.layer = o
	var dec model.Instance
	var decErr error
	t.do("model.decode", i, root, func() { decErr = dec.UnmarshalJSON([]byte(in.raw)) })
	if decErr != nil {
		rec.failf(rt.name, failCheck, "replay.decode", "%v", decErr)
		return
	}
	t.do("fingerprint.instance_key", i, root, func() { serve.InstanceKey(&dec) })
	sol, err := resolveSolver(in.solver, in.in)
	if err != nil {
		rec.failf(rt.name, failCheck, "replay.solver", "%v", err)
		return
	}
	par := buildParams(seed)
	var res *solve.Result
	buildMS := t.do("solve.build", i, root, func() { res, err = sol.Build(in.in, par) })
	if err != nil {
		rec.failf(rt.name, failCheck, "replay.build", "%v", err)
		return
	}
	o.lp = res.LPRows > 0
	o.pivots, o.rows, o.nnz = res.LPPivots, res.LPRows, res.LPNnz
	o.prefixLen = res.PrefixLen
	if res.Exact != nil {
		o.optimal = true
		o.optMS = buildMS
		o.optStates, o.optTransitions = res.Exact.States, res.Exact.Transitions
	}
	if err := replayStages(t, i, root, in.in, sol.ID, par, o); err != nil {
		rec.failf(rt.name, failCheck, "replay.stages", "%v", err)
		return
	}
	var prep *sim.Prepared
	t.do("sim.prepare", i, root, func() { prep = sim.Prepare(in.in, res.Policy) })
	engine, states, _ := prep.Engine()
	o.prepared, o.fallback, o.adaptiveStates = true, engine == "", states
	replayEstimate(t, i, root, prep, in.reps, simSeed, o)
}

// replayEstimate times one estimate on a prepared engine.
func replayEstimate(t *tracer, i, root int, prep *sim.Prepared, reps int, simSeed int64, o *layerObs) {
	var eng sim.EngineUsed
	o.estimateMS = t.do("sim.estimate", i, root, func() {
		_, _, eng = prep.EstimateParallelInfo(reps, maxSteps, simSeed, 1)
	})
	o.engine, o.reps, o.spliced = eng.Engine, reps, eng.Spliced
}

// poolShapes are the probability shapes the pools cycle through.
var poolShapes = []workload.ProbShape{workload.Uniform, workload.Bimodal, workload.PowerLaw, workload.Correlated}

// generate builds one instance of a precedence class.
func generate(class string, c workload.Config) *model.Instance {
	switch class {
	case "chains":
		return workload.Chains(c, 4)
	case "out-forest":
		return workload.OutTree(c)
	case "in-forest":
		return workload.InTree(c)
	case "mixed-forest":
		return workload.MixedForest(c, 4)
	}
	return workload.Independent(c)
}

// instanceSeed derives pool entry k's generator seed from the run seed.
func instanceSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }
