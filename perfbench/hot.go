package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"suu/internal/serve"
	"suu/internal/sim"
	"suu/internal/workload"
)

// hotReps is the repetition count of every serve-hot estimate.
const hotReps = 1000

// hotEntry is one pre-warmed instance of serve-hot with the cold
// replies every later cache hit must reproduce byte for byte.
type hotEntry struct {
	tripInput
	instanceID string
	sol        serve.SolveResult
	solveRef   json.RawMessage
	estRef     json.RawMessage
	prep       *sim.Prepared // traced runs: the replay's own engine
}

// hotSet is serve-hot: a closed loop over 16 pre-warmed independent
// and chains instances,
// referenced by instance_id and schedule_id. Per ten ops: five repeat
// solves and four repeat estimates (result-cache hits), and one
// estimate with a fresh sim_seed, which misses the result cache, hits
// the engine cache, runs a real estimate and writes a new entry.
type hotSet struct {
	hot []hotEntry
}

// hotSampleStride spaces the sampled fresh-seed estimates: every
// hotSampleStride-th block of ten ops. It is coprime to the 16 hot
// instances, so the eight samples fall on instances of both classes
// and all four shapes.
const hotSampleStride = 19

// pick maps op i to its instance and its kind within the ten-op mix.
// Each instance runs one whole block of ten ops before the next takes
// over, so every instance sees every kind, the fresh-seed estimate
// included.
func (hs *hotSet) pick(i int) (h, kind int) {
	return i / 10 % len(hs.hot), i % 10
}

// hotSample is a sampled fresh-seed estimate.
type hotSample struct {
	h        int
	simSeed  int64
	estimate serve.EstimateResult
}

func setupServeHot(seed int64) (*env, error) {
	// Independent and chains instances only: forest prefixes make the
	// quality ratio of a 16-instance set swing with the draw.
	classes := []string{"independent", "chains"}
	hs := &hotSet{}
	e := &env{name: "serve-hot", window: 1600, op: hs.op, replay: hs.replay, traceSetup: hs.traceSetup, check: hs.check, allocs: hs.allocs}
	if err := newServer(e); err != nil {
		return nil, err
	}
	c := newClient(e, -1)
	defer c.closeIdle()
	for k := 0; k < 16; k++ {
		in := generate(classes[k%2], workload.Config{
			Jobs: []int{32, 48}[k/8], Machines: 8, Shape: poolShapes[k%4], Seed: instanceSeed(seed, k),
		})
		ti, err := encodeInstance(in)
		if err != nil {
			return nil, err
		}
		h := hotEntry{tripInput: ti}
		var inst struct {
			ID string `json:"id"`
		}
		if err := c.prewarm("/v1/instances", []byte(ti.raw), &inst); err != nil {
			return nil, err
		}
		h.instanceID = inst.ID
		var sr reply[serve.SolveResult]
		if err := c.prewarm("/v1/solve", fmt.Appendf(nil, `{"instance_id":%q,"solver":"auto"}`, h.instanceID), &sr); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(sr.Result, &h.sol); err != nil {
			return nil, err
		}
		h.solveRef = sr.Result
		var er reply[serve.EstimateResult]
		if err := c.prewarm("/v1/estimate", hotEstimateBody(h.sol.ScheduleID, 7), &er); err != nil {
			return nil, err
		}
		h.estRef = er.Result
		hs.hot = append(hs.hot, h)
	}
	return e, nil
}

func hotEstimateBody(scheduleID string, simSeed int64) []byte {
	return fmt.Appendf(nil, `{"schedule_id":%q,"reps":%d,"sim_seed":%d}`, scheduleID, hotReps, simSeed)
}

// prewarm sends one set-up request and decodes its 200 reply into v.
func (c *client) prewarm(path string, body []byte, v any) error {
	code, data, _, err := c.post("setup", path, body)
	if err != nil {
		return fmt.Errorf("pre-warm %s: %w", path, err)
	}
	if code != 200 {
		return fmt.Errorf("pre-warm %s: status %d: %s", path, code, data)
	}
	return json.Unmarshal(data, v)
}

func (hs *hotSet) op(c *client, i int) opRecord {
	rec := opRecord{idx: i}
	h, kind := hs.pick(i)
	entry := &hs.hot[h]
	if kind < 5 {
		data, ok := c.request(&rec, "serve.solve", "/v1/solve",
			fmt.Appendf(nil, `{"instance_id":%q,"solver":"auto"}`, entry.instanceID))
		if !ok {
			return rec
		}
		r, err := decodeReply[serve.SolveResult](data)
		if err != nil {
			rec.failf("serve-hot", failCheck, "solve.body", "%v", err)
			return rec
		}
		rec.reqs[0].meta = r.Meta
		if r.Meta.Cached && !bytes.Equal(r.Result, entry.solveRef) {
			rec.failf("serve-hot", failCheck, "result", "cached solve result differs from the cold reply")
		}
		return rec
	}
	simSeed := int64(7)
	if kind == 9 {
		simSeed = 1_000_000 + int64(i)
	}
	data, ok := c.request(&rec, "serve.estimate", "/v1/estimate", hotEstimateBody(entry.sol.ScheduleID, simSeed))
	if !ok {
		return rec
	}
	r, err := decodeReply[serve.EstimateResult](data)
	if err != nil {
		rec.failf("serve-hot", failCheck, "estimate.body", "%v", err)
		return rec
	}
	rec.reqs[0].meta = r.Meta
	est := r.parsed
	if !r.Meta.Cached && !r.Meta.Coalesced {
		rec.reps = est.Reps
	}
	if r.Meta.Cached && simSeed == 7 && !bytes.Equal(r.Result, entry.estRef) {
		rec.failf("serve-hot", failCheck, "result", "cached estimate result differs from the cold reply")
	}
	checkEstimate(&rec, "serve-hot", entry.sol, est)
	if entry.sol.LowerBound > 0 {
		rec.ratio = est.Mean / entry.sol.LowerBound
	}
	// Eight fresh-seed estimates of the window are re-run directly.
	if block := i / 10; kind == 9 && i < c.env.window && block%hotSampleStride == 0 && block/hotSampleStride < 8 {
		rec.sample = &hotSample{h: h, simSeed: simSeed, estimate: est}
	}
	return rec
}

// traceSetup builds the replay's own engine per hot instance, as the
// server holds one in its engine cache.
func (hs *hotSet) traceSetup() error {
	for k := range hs.hot {
		h := &hs.hot[k]
		var err error
		if _, _, h.prep, err = direct(h.in, "auto", 1); err != nil {
			return err
		}
	}
	return nil
}

// replay serves a cache hit again through ServeHTTP in process, so
// the difference to the client-observed time is the HTTP overhead,
// and re-runs a fresh-seed estimate on the replay's own engine.
func (hs *hotSet) replay(c *client, i int, rec *opRecord, root int) {
	o := &layerObs{}
	rec.layer = o
	q := rec.reqs[0]
	if q.meta.Cached {
		req := httptest.NewRequest("POST", q.path, bytes.NewReader(q.body))
		w := httptest.NewRecorder()
		start := time.Now()
		c.env.srv.ServeHTTP(w, req)
		end := time.Now()
		c.tr.record("serve.inproc", i, root, start, end)
		c.inproc++
		o.httpOverheadMS, o.hasOverhead = q.ms()-float64(end.Sub(start).Nanoseconds())/1e6, true
		return
	}
	if h, kind := hs.pick(i); kind == 9 {
		replayEstimate(c.tr, i, root, hs.hot[h].prep, hotReps, 1_000_000+int64(i), o)
	}
}

// check re-runs a sampled fresh-seed estimate directly.
func (hs *hotSet) check(s any) (string, error) {
	smp := s.(*hotSample)
	h := &hs.hot[smp.h]
	return checkDirect(h.in, "auto", 1, smp.simSeed, h.sol, smp.estimate)
}

func (hs *hotSet) allocs(s any) float64 {
	smp := s.(*hotSample)
	return estimateAllocs(hs.hot[smp.h].in, "auto", 1, smp.simSeed, hotReps)
}
