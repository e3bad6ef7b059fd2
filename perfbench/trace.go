package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call at a layer boundary. Spans are kept in memory
// and written out when the run ends.
type span struct {
	name       string
	op         int
	id, parent int // parent is -1 for an op's root span
	start, end time.Duration
}

func (s span) ms() float64 { return float64((s.end - s.start).Nanoseconds()) / 1e6 }

// tracer is one client's span buffer; ids are unique across clients.
type tracer struct {
	t0     time.Time
	client int
	spans  []span
}

// record appends a span that has already ended and returns its id.
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	id := t.client<<40 | len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, id: id, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return id
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	id := t.client<<40 | len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, id: id, parent: parent, start: time.Since(t.t0)})
	return id
}

// end closes span id and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id&(1<<40-1)]
	s.end = time.Since(t.t0)
	return s.ms()
}

// do runs f as a span and returns its duration in ms.
func (t *tracer) do(name string, op, parent int, f func()) float64 {
	id := t.begin(name, op, parent)
	f()
	return t.end(id)
}

// layerObs is what the traced replay of one op counted. Counts that
// repeat exactly for a seed (pivots, states, prefix lengths, engines)
// are aggregated over the deterministic window only.
type layerObs struct {
	// lp reports an LP-backed build; pivots, rows and nnz are its
	// registry result's LP counters.
	lp                bool
	pivots, rows, nnz int
	// lpMS and lpPivots are the replayed core.lp stage's time and
	// pivots (0 when the pipeline has no separate LP stage).
	lpMS           float64
	lpPivots       int
	prefixLen      int
	prepared       bool
	fallback       bool // Prepare built no engine
	adaptiveStates int
	// engine, reps and estimateMS describe the replayed estimate.
	engine         string
	reps           int
	estimateMS     float64
	spliced        bool
	optimal        bool
	optMS          float64
	optStates      int
	optTransitions int64
	dynamic        bool
	// httpOverheadMS is the client time of a cache hit minus the same
	// request served in process.
	httpOverheadMS float64
	hasOverhead    bool
}

// layerMetric is one per-layer metric and the end-to-end metric it
// should move, on which workload.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics is the per-layer catalogue, in report order. A layer a
// workload does not exercise reports 0 there.
var layerMetrics = []layerMetric{
	{"trace.op_ms_p50", "ms", "lower", "op_ms_p50 of the same workload with tracing on; the difference to the untraced run is the tracing overhead"},
	{"serve.solve_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold (cold builds) and serve-hot (result-cache hits)"},
	{"serve.estimate_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold (compile plus lane estimate) and serve-hot (hits and fresh seeds)"},
	{"serve.results.hit_ratio", "ratio", "higher", "ops_per_s on serve-hot: a miss runs a solve or an estimate"},
	{"serve.engines.hit_ratio", "ratio", "higher", "ops_per_s on serve-hot: fresh-seed estimates reuse the compiled engine"},
	{"serve.results.evictions", "count", "lower", "peak_rss_mb and op_ms_p90 on serve-cold: the insert/evict path of the result cache"},
	{"serve.engines.evictions", "count", "lower", "peak_rss_mb and op_ms_p90 on serve-cold: the insert/evict path of the engine cache"},
	{"serve.coalesced", "count", "higher", "ops_per_s: identical concurrent builds share one build"},
	{"serve.cache_mb", "MB", "lower", "peak_rss_mb on serve-cold: bytes held by the four caches"},
	{"serve.warm_starts", "count", "higher", "op_ms_p50 of a workload that re-solves an evicted result; reads 0 by design on every current workload (serve-cold never repeats a seed, serve-hot solves are all result-cache hits)"},
	{"serve.engine_cached", "count", "higher", "op_ms_p50 on serve-hot: fresh-seed estimates skip the compile"},
	{"serve.http_overhead_ms_p50", "ms", "lower", "op_ms_p50 on serve-hot: client time of a cache hit minus the same request through ServeHTTP in process"},
	{"serve.unknown_refs", "count", "lower", "ok_frac on the serve workloads: references to ids the server no longer held"},
	{"model.decode_us_p50", "us", "lower", "op_ms_p50 on serve-cold and adaptive-exact, slightly: inline instances are decoded per op"},
	{"fingerprint.instance_key_us_p50", "us", "lower", "op_ms_p50 on serve-cold and adaptive-exact, slightly: inline instances are keyed per op"},
	{"solve.build_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold and adaptive-exact"},
	{"solve.build_ms_p90", "ms", "lower", "op_ms_p90 on serve-cold and adaptive-exact"},
	{"solve.self_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold: build time outside the stage spans"},
	{"core.lp_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold"},
	{"lp.pivots_p50", "count", "lower", "op_ms_p50 on serve-cold"},
	{"lp.rows_p50", "count", "lower", "op_ms_p50 on serve-cold"},
	{"lp.nnz_p50", "count", "lower", "op_ms_p50 on serve-cold"},
	{"lp.pivots_per_ms", "1/ms", "higher", "op_ms_p50 on serve-cold"},
	{"core.round_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold"},
	{"core.delays_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold, chains instances"},
	{"core.replicate_ms_p50", "ms", "lower", "op_ms_p50 and peak_rss_mb on serve-cold"},
	{"core.forest_ms_p50", "ms", "lower", "op_ms_p50 and op_ms_p90 on serve-cold, forest instances (no finer exported split)"},
	{"dag.decomp_ms_p50", "ms", "lower", "op_ms_p50 on serve-cold, forest instances (timed beside core.forest)"},
	{"sched.prefix_len_p50", "count", "lower", "op_ms_p50 and peak_rss_mb on serve-cold: the prefix sets estimate steps and cache bytes"},
	{"sim.prepare_ms_p50", "ms", "lower", "op_ms_p50 on adaptive-exact and serve-cold"},
	{"sim.adaptive_states_p50", "count", "lower", "op_ms_p50 on adaptive-exact"},
	{"sim.prepare_fallback_frac", "fraction", "lower", "op_ms_p50 on adaptive-exact: compile work that built no engine"},
	{"sim.estimate_ms_p50", "ms", "lower", "mc_reps_per_s on every serve workload, most on adaptive-exact"},
	{"sim.reps_per_s.compiled", "1/s", "higher", "mc_reps_per_s"},
	{"sim.reps_per_s.compiled-lane", "1/s", "higher", "mc_reps_per_s on serve-cold and serve-hot"},
	{"sim.reps_per_s.compiled-adaptive", "1/s", "higher", "mc_reps_per_s on adaptive-exact"},
	{"sim.reps_per_s.compiled-adaptive-lane", "1/s", "higher", "mc_reps_per_s on adaptive-exact"},
	{"sim.reps_per_s.generic", "1/s", "higher", "mc_reps_per_s on adaptive-exact"},
	{"sim.engine_share.generic", "fraction", "lower", "mc_reps_per_s on adaptive-exact: share of window ops on the generic engine"},
	{"sim.spliced_share", "fraction", "higher", "mc_reps_per_s: share of window ops that spliced terminal layers"},
	{"sim.allocs_per_rep", "count", "lower", "mc_reps_per_s and go.gc_cycles_per_op"},
	{"opt.build_ms_p50", "ms", "lower", "op_ms_p90 on adaptive-exact, where optimal solves form the tail"},
	{"opt.states_p50", "count", "lower", "op_ms_p90 on adaptive-exact"},
	{"opt.transitions_p50", "count", "lower", "op_ms_p90 on adaptive-exact"},
	{"opt.states_per_s", "1/s", "higher", "op_ms_p90 on adaptive-exact"},
	{"dyn.estimate_ms_p50.static", "ms", "lower", "op_ms_p50 on dynamic"},
	{"dyn.estimate_ms_p50.adaptive", "ms", "lower", "op_ms_p50 on dynamic"},
	{"dyn.estimate_ms_p50.rolling", "ms", "lower", "op_ms_p50 and op_ms_p90 on dynamic"},
	{"dyn.rolling_setup_ms_p50", "ms", "lower", "op_ms_p50 on dynamic: the initial solve of the rolling strategy"},
	{"dyn.reps_per_s", "1/s", "higher", "mc_reps_per_s on dynamic"},
	{"go.alloc_bytes_per_op", "B", "lower", "op_ms_p90 and peak_rss_mb on every workload"},
	{"go.gc_cycles_per_op", "count", "lower", "op_ms_p90 on every workload"},
	{"go.gc_pause_ms", "ms", "lower", "op_ms_p90 on every workload: mean stop-the-world pause per GC cycle"},
	{"go.heap_peak_mb", "MB", "lower", "peak_rss_mb on every workload"},
}

// layerValues aggregates a traced run into the per-layer metrics.
func layerValues(e *env, rr *runResult, allocsPerRep float64) map[string]float64 {
	v := map[string]float64{}
	v["trace.op_ms_p50"] = figures(rr, e.window).p50

	byName := map[string][]float64{}
	for _, s := range rr.spans {
		byName[s.name] = append(byName[s.name], s.ms())
	}
	p50 := func(name string) float64 { return quantile(byName[name], 0.5) }
	v["core.lp_ms_p50"] = p50("core.lp")
	v["core.round_ms_p50"] = p50("core.round")
	v["core.delays_ms_p50"] = p50("core.delays")
	v["core.replicate_ms_p50"] = p50("core.replicate")
	v["core.forest_ms_p50"] = p50("core.forest")
	v["dag.decomp_ms_p50"] = p50("dag.decomp")
	v["solve.build_ms_p50"] = p50("solve.build")
	v["solve.build_ms_p90"] = quantile(byName["solve.build"], 0.9)
	v["sim.prepare_ms_p50"] = p50("sim.prepare")
	v["sim.estimate_ms_p50"] = p50("sim.estimate")
	v["dyn.estimate_ms_p50.static"] = p50("dyn.estimate.static")
	v["dyn.estimate_ms_p50.adaptive"] = p50("dyn.estimate.adaptive")
	v["dyn.estimate_ms_p50.rolling"] = p50("dyn.estimate.rolling")
	v["dyn.rolling_setup_ms_p50"] = p50("dyn.rolling_setup")
	v["model.decode_us_p50"] = 1000 * p50("model.decode")
	v["fingerprint.instance_key_us_p50"] = 1000 * p50("fingerprint.instance_key")
	v["solve.self_ms_p50"] = quantile(selfTimes(rr.spans), 0.5)

	var lpMS, lpPivots, optSec, optStates, dynSec, dynReps float64
	repsBy, secBy := map[string]float64{}, map[string]float64{}
	var solveMS, estMS, overhead, optBuildMS []float64
	var winPivots, winRows, winNnz, winPrefix, winStates, winOptStates, winOptTrans []float64
	var winEstimates, winGeneric, winSpliced, winPrepared, winFallback float64
	var warm, engineCached float64
	for _, r := range rr.recs {
		for _, q := range r.reqs {
			switch q.endpoint {
			case "serve.solve":
				solveMS = append(solveMS, q.ms())
				if q.meta.WarmBasis {
					warm++
				}
			case "serve.estimate":
				estMS = append(estMS, q.ms())
				if q.meta.EngineCached {
					engineCached++
				}
			}
		}
		o := r.layer
		if o == nil {
			continue
		}
		if o.hasOverhead {
			overhead = append(overhead, o.httpOverheadMS)
		}
		lpMS += o.lpMS
		lpPivots += float64(o.lpPivots)
		if o.optimal {
			optBuildMS = append(optBuildMS, o.optMS)
			optSec += o.optMS / 1000
			optStates += float64(o.optStates)
		}
		if o.dynamic {
			dynSec += o.estimateMS / 1000
			dynReps += float64(o.reps)
		} else if o.engine != "" {
			repsBy[o.engine] += float64(o.reps)
			secBy[o.engine] += o.estimateMS / 1000
		}
		if r.idx >= e.window {
			continue
		}
		if o.lp {
			winPivots = append(winPivots, float64(o.pivots))
			winRows = append(winRows, float64(o.rows))
			winNnz = append(winNnz, float64(o.nnz))
		}
		if o.prefixLen > 0 {
			winPrefix = append(winPrefix, float64(o.prefixLen))
		}
		if o.prepared {
			winPrepared++
			if o.fallback {
				winFallback++
			}
			if o.adaptiveStates > 0 {
				winStates = append(winStates, float64(o.adaptiveStates))
			}
		}
		if o.engine != "" && !o.dynamic {
			winEstimates++
			if o.engine == "generic" {
				winGeneric++
			}
			if o.spliced {
				winSpliced++
			}
		}
		if o.optimal {
			winOptStates = append(winOptStates, float64(o.optStates))
			winOptTrans = append(winOptTrans, float64(o.optTransitions))
		}
	}
	v["serve.solve_ms_p50"] = quantile(solveMS, 0.5)
	v["serve.estimate_ms_p50"] = quantile(estMS, 0.5)
	v["serve.http_overhead_ms_p50"] = quantile(overhead, 0.5)
	v["serve.warm_starts"] = warm
	v["serve.engine_cached"] = engineCached
	v["lp.pivots_p50"] = quantile(winPivots, 0.5)
	v["lp.rows_p50"] = quantile(winRows, 0.5)
	v["lp.nnz_p50"] = quantile(winNnz, 0.5)
	v["lp.pivots_per_ms"] = ratio(lpPivots, lpMS)
	v["sched.prefix_len_p50"] = quantile(winPrefix, 0.5)
	v["sim.adaptive_states_p50"] = quantile(winStates, 0.5)
	v["sim.prepare_fallback_frac"] = ratio(winFallback, winPrepared)
	v["sim.engine_share.generic"] = ratio(winGeneric, winEstimates)
	v["sim.spliced_share"] = ratio(winSpliced, winEstimates)
	for _, eng := range []string{"compiled", "compiled-lane", "compiled-adaptive", "compiled-adaptive-lane", "generic"} {
		v["sim.reps_per_s."+eng] = ratio(repsBy[eng], secBy[eng])
	}
	v["sim.allocs_per_rep"] = allocsPerRep
	v["opt.states_p50"] = quantile(winOptStates, 0.5)
	v["opt.transitions_p50"] = quantile(winOptTrans, 0.5)
	v["opt.states_per_s"] = ratio(optStates, optSec)
	v["opt.build_ms_p50"] = quantile(optBuildMS, 0.5)
	v["dyn.reps_per_s"] = ratio(dynReps, dynSec)

	if e.srv != nil {
		b, a := rr.statusBefore.Caches, rr.statusAt.Caches
		delta := func(cache string) (hits, misses, evictions float64) {
			return float64(a[cache].Hits - b[cache].Hits), float64(a[cache].Misses - b[cache].Misses),
				float64(a[cache].Evictions - b[cache].Evictions)
		}
		hits, misses, ev := delta("results")
		// The in-process replays of cache hits add one result hit each.
		hits -= float64(rr.inprocHits)
		v["serve.results.hit_ratio"] = ratio(hits, hits+misses)
		v["serve.results.evictions"] = ev
		hits, misses, ev = delta("engines")
		v["serve.engines.hit_ratio"] = ratio(hits, hits+misses)
		v["serve.engines.evictions"] = ev
		var coalesced, bytes float64
		for k, c := range a {
			coalesced += float64(c.Coalesced - b[k].Coalesced)
			bytes += float64(c.Bytes)
		}
		v["serve.coalesced"] = coalesced
		v["serve.cache_mb"] = bytes / (1 << 20)
	}
	unknown := 0
	for _, r := range rr.recs {
		if r.unknown {
			unknown++
		}
	}
	v["serve.unknown_refs"] = float64(unknown)

	mb, ma := &rr.memBefore, &rr.memAfter
	ops := float64(len(rr.ops))
	v["go.alloc_bytes_per_op"] = float64(ma.TotalAlloc-mb.TotalAlloc) / ops
	v["go.gc_cycles_per_op"] = float64(ma.NumGC-mb.NumGC) / ops
	v["go.gc_pause_ms"] = ratio(float64(ma.PauseTotalNs-mb.PauseTotalNs)/1e6, float64(ma.NumGC-mb.NumGC))
	v["go.heap_peak_mb"] = float64(rr.heapPeakBytes) / (1 << 20)
	return v
}

// selfTimes returns, per op that has a solve.build span, the build
// duration minus the stage spans under that op's solve.stages span.
func selfTimes(spans []span) []float64 {
	build := map[int]float64{}
	stagesID := map[int]int{}
	for _, s := range spans {
		switch s.name {
		case "solve.build":
			build[s.op] = s.ms()
		case "solve.stages":
			stagesID[s.op] = s.id
		}
	}
	children := map[int]float64{}
	for _, s := range spans {
		if id, ok := stagesID[s.op]; ok && s.parent == id {
			children[s.op] += s.ms()
		}
	}
	var out []float64
	for op, b := range build {
		out = append(out, b-children[op])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the span file and the per-layer table of a traced
// run under .bench_build/trace in the working directory.
func writeTrace(e *env, rr *runResult, layers map[string]float64, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", e.name, seed))
	if err := writeFile(stem+".spans.tsv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "name\top\tid\tparent\tstart_ns\tend_ns")
		for _, s := range rr.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.op, s.id, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
		}
	}); err != nil {
		return err
	}
	return writeFile(stem+".layers.txt", func(w *bufio.Writer) {
		fmt.Fprintf(w, "# %s seed=%d nproc=%d gomaxprocs=%d go=%s ops=%d spans=%d\n",
			e.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), len(rr.recs), len(rr.spans))
		fmt.Fprintf(w, "# tracing overhead = trace.op_ms_p50 (%.4f ms) minus op_ms_p50 of an untraced run of the same seed\n",
			layers["trace.op_ms_p50"])
		for _, lm := range layerMetrics {
			fmt.Fprintf(w, "%-40s %14.6g %-8s moves %s\n", lm.name, layers[lm.name], lm.unit, lm.moves)
		}
		fmt.Fprintln(w, "# build accounting (means over traced ops): solve.build = Σ stage spans + solve.self")
		b, st, self := buildAccounting(rr.spans)
		fmt.Fprintf(w, "# solve.build %.4f ms = stages %.4f ms + self %.4f ms\n", b, st, self)
	})
}

// buildAccounting returns the mean build time, the mean summed stage
// spans and the mean self time over the ops that built a schedule.
func buildAccounting(spans []span) (build, stages, self float64) {
	st := selfTimes(spans)
	var sum float64
	n := 0
	for _, s := range spans {
		if s.name == "solve.build" {
			sum += s.ms()
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	for _, x := range st {
		self += x
	}
	build, self = sum/float64(n), self/float64(n)
	return build, build - self, self
}

func writeFile(path string, fill func(w *bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
