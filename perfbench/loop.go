package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"suu/internal/serve"
)

// Failure classes of an op.
const (
	failNon200    = "non_200"
	failTransport = "transport"
	failCall      = "call_error"
	failCheck     = "check"
)

// env is one workload's built environment: its inputs, the server it
// drives (nil for the library-call workload) and its op functions.
type env struct {
	name string
	// window is the length of the deterministic op window [0, window):
	// every run completes these ops, so counts and quality ratios over
	// them repeat exactly for a seed.
	window int
	// srv and httpSrv are the in-process server on a loopback listener.
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	served  chan struct{}
	// op runs operation i as client c and returns its record.
	op func(c *client, i int) opRecord
	// replay re-runs op i stage by stage through the layers' exported
	// entry points, recording spans under root (traced runs only).
	replay func(c *client, i int, rec *opRecord, root int)
	// traceSetup prepares what only the replay needs (may be nil).
	traceSetup func() error
	// check re-runs a sampled op directly through the libraries and
	// returns the first field that differs from the served reply.
	check func(s any) (field string, err error)
	// allocs re-runs a sampled op's estimate alone and returns its heap
	// allocations per repetition (nil when the workload has no sim
	// estimate to measure).
	allocs func(s any) float64
}

// startServer serves srv on a loopback TCP listener.
func (e *env) startServer(srv *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.srv = srv
	e.httpSrv = &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	e.base = "http://" + ln.Addr().String()
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.httpSrv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return nil
}

// close stops the server, if any, and waits for it to exit.
func (e *env) close() {
	if e.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.httpSrv.Shutdown(ctx); err != nil {
		e.httpSrv.Close()
	}
	<-e.served
	e.httpSrv = nil
}

// reqObs is one client-observed request of an op.
type reqObs struct {
	endpoint   string // span name: serve.solve, serve.estimate, ...
	path       string
	body       []byte
	start, end time.Time
	meta       serve.Meta
}

func (r reqObs) ms() float64 { return float64(r.end.Sub(r.start).Nanoseconds()) / 1e6 }

// opRecord is what one op leaves behind.
type opRecord struct {
	idx int
	// ms is the op's client-observed latency: the sum of its requests'
	// round trips, or the library call's wall time.
	ms float64
	// fail is the failure class ("" when the op succeeded); failMsg
	// names the workload, op index and field.
	fail, failMsg string
	// unknown reports a reference to an id the server no longer held.
	unknown bool
	// reps is the Monte Carlo repetitions the op actually simulated
	// (cache hits simulate none).
	reps int
	// ratio is the estimate mean over the instance's lower bound (0
	// when the op produced no estimate).
	ratio float64
	reqs  []reqObs
	// sample holds the inputs and replies of a sampled op, for the
	// post-run direct re-run.
	sample any
	// layer holds the counters the traced replay observed.
	layer *layerObs
}

// failf marks the op failed with class and a message naming the op.
func (r *opRecord) failf(workload, class, field, format string, args ...any) {
	if r.fail != "" {
		return
	}
	r.fail = class
	r.failMsg = fmt.Sprintf("workload=%s op=%d field=%s: %s", workload, r.idx, field, fmt.Sprintf(format, args...))
}

// opTiming is what every op leaves for the latency and rate figures.
// Runs keep one per op; full records only where they are needed.
type opTiming struct {
	idx   int
	start time.Duration
	ms    float64
	reps  int
	ok    bool
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	id   int
	env  *env
	hc   *http.Client
	tr   *tracer
	ops  []opTiming
	recs []opRecord
	// inproc counts in-process result-cache hits the traced replay
	// added, so the server's hit ratio can leave them out.
	inproc int
}

// newClient returns a client with its own transport, holding at most
// one keep-alive connection.
func newClient(e *env, id int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, env: e, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// closeIdle closes the client's idle connection.
func (c *client) closeIdle() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one JSON request and returns the status, the body and
// the observation; err is a transport error.
func (c *client) post(endpoint, path string, body []byte) (int, []byte, reqObs, error) {
	obs := reqObs{endpoint: endpoint, path: path, body: body}
	req, err := http.NewRequest(http.MethodPost, c.env.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, obs, err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		obs.end = time.Now()
		return 0, nil, obs, err
	}
	data, err := io.ReadAll(resp.Body)
	obs.end = time.Now()
	resp.Body.Close()
	return resp.StatusCode, data, obs, err
}

// unknownRef reports whether an error reply names an id the server no
// longer holds.
func unknownRef(body []byte) bool {
	return bytes.Contains(body, []byte("unknown instance_id")) || bytes.Contains(body, []byte("unknown schedule"))
}

// runResult is one measured loop.
type runResult struct {
	// ops has every op; recs, sorted by op index, holds the full record
	// of every op that failed, was sampled, lies in the deterministic
	// window, or ran traced.
	ops                    []opTiming
	recs                   []opRecord
	spans                  []span
	wall                   time.Duration
	memBefore, memAfter    runtime.MemStats
	statusBefore, statusAt serve.Status
	heapPeakBytes          uint64
	inprocHits             int
}

// runLoop runs the closed loop: clients claim op indices in order and
// stop once the deadline has passed and the deterministic window is
// done.
func runLoop(e *env, clients int, d time.Duration, traced bool) *runResult {
	rr := &runResult{}
	cs := make([]*client, clients)
	for k := range cs {
		cs[k] = newClient(e, k)
	}
	if e.srv != nil {
		rr.statusBefore = e.srv.StatusSnapshot()
	}
	runtime.ReadMemStats(&rr.memBefore)
	t0 := time.Now()
	stopSampler := func() uint64 { return 0 }
	if traced {
		for _, c := range cs {
			c.tr = &tracer{t0: t0, client: c.id}
		}
		stopSampler = sampleHeap()
	}
	deadline := t0.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= e.window && !time.Now().Before(deadline) {
					return
				}
				opStart := time.Now()
				rec := e.op(c, i)
				if c.tr != nil {
					root := c.tr.record("op", i, -1, opStart, time.Now())
					for _, q := range rec.reqs {
						c.tr.record(q.endpoint, i, root, q.start, q.end)
					}
					if rec.fail == "" {
						e.replay(c, i, &rec, root)
					}
					for k := range rec.reqs {
						rec.reqs[k].body = nil
					}
				}
				c.ops = append(c.ops, opTiming{idx: i, start: opStart.Sub(t0), ms: rec.ms, reps: rec.reps, ok: rec.fail == ""})
				if c.tr != nil || rec.fail != "" || rec.sample != nil || i < e.window {
					c.recs = append(c.recs, rec)
				}
			}
		}(c)
	}
	wg.Wait()
	rr.wall = time.Since(t0)
	rr.heapPeakBytes = stopSampler()
	runtime.ReadMemStats(&rr.memAfter)
	if e.srv != nil {
		rr.statusAt = e.srv.StatusSnapshot()
	}
	for _, c := range cs {
		c.closeIdle()
		rr.ops = append(rr.ops, c.ops...)
		rr.recs = append(rr.recs, c.recs...)
		rr.inprocHits += c.inproc
		if c.tr != nil {
			rr.spans = append(rr.spans, c.tr.spans...)
		}
	}
	sort.Slice(rr.recs, func(a, b int) bool { return rr.recs[a].idx < rr.recs[b].idx })
	return rr
}

// sampleHeap polls the live heap every 10ms until the returned stop
// function is called; stop waits for the poller and returns the peak.
func sampleHeap() func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// sampled reports whether op i keeps its inputs for the direct re-run:
// about eight ops of the window, at an odd stride so that samples
// alternate between the even and odd positions of a pool.
func (e *env) sampled(i int) bool {
	stride := e.window/8 | 1
	return i < e.window && i%stride == stride-1
}

// verify re-runs every sampled op directly and marks the op failed on
// the first differing field.
func (e *env) verify(rr *runResult) {
	failed := map[int]bool{}
	for k := range rr.recs {
		r := &rr.recs[k]
		if r.sample == nil || r.fail != "" {
			continue
		}
		if field, err := e.check(r.sample); err != nil {
			r.failf(e.name, failCheck, field, "direct re-run: %v", err)
			failed[r.idx] = true
		}
	}
	for k := range rr.ops {
		if failed[rr.ops[k].idx] {
			rr.ops[k].ok = false
		}
	}
}

// measureAllocs re-runs up to four sampled estimates one at a time,
// with nothing else running, and returns their mean heap allocations
// per repetition.
func (e *env) measureAllocs(recs []opRecord) float64 {
	if e.allocs == nil {
		return 0
	}
	var sum float64
	n := 0
	for _, r := range recs {
		if r.sample == nil || r.fail != "" || n == 4 {
			continue
		}
		sum += e.allocs(r.sample)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// allocsPerRep runs f once and returns its mallocs divided by reps.
func allocsPerRep(reps int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// accounting is the failure summary of a run.
type accounting struct {
	attempted, failed int
	byClass           map[string]int
	unknownRefs       int
	messages          []string
}

func accountFailures(rr *runResult) accounting {
	a := accounting{attempted: len(rr.ops), byClass: map[string]int{}}
	for _, r := range rr.recs {
		if r.unknown {
			a.unknownRefs++
		}
		if r.fail == "" {
			continue
		}
		a.failed++
		a.byClass[r.fail]++
		if len(a.messages) < 20 {
			a.messages = append(a.messages, r.failMsg)
		}
	}
	return a
}
