// Command perfbench is the repository benchmark. It drives the SUU
// system from outside as a closed loop — each client sends its next
// operation only when the previous one has returned — checks every
// reply, and prints its metrics as one JSON object on the last line of
// standard output: the end-to-end metrics by default, the per-layer
// metrics with --trace 1.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
//
// The workloads, the metrics, and which layer metric should move which
// end-to-end metric are described in perfbench/METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"suu/internal/stats"
)

// runSeconds is the loop length BENCHMARK.json's run_seconds passes
// as --seconds, and the default. The bounds were set at this length;
// compare runs only at the same length, because it sets how many
// windows a slice holds.
const runSeconds = 25

// setupRounds is how many times a run builds its environment; setup_s
// is the median, and the last environment is the one measured.
const setupRounds = 7

// maxSteps is the step cap of every estimate the benchmark requests or
// replays (the serve default).
const maxSteps = 1_000_000

// workloadDef builds one workload's environment from the seed.
type workloadDef struct {
	name  string
	setup func(seed int64) (*env, error)
}

var workloads = []workloadDef{
	{"serve-cold", setupServeCold},
	{"serve-hot", setupServeHot},
	{"adaptive-exact", setupAdaptiveExact},
	{"dynamic", setupDynamic},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "serve-cold", "workload: serve-cold, serve-hot, adaptive-exact or dynamic")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured closed loop, in seconds")
	trace := flag.Int("trace", 0, "1 replays every operation stage by stage and reports per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	traced := *trace == 1
	clients := runtime.NumCPU()

	var e *env
	setupS := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = def.setup(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", *name, err)
			return 2
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if traced && e.traceSetup != nil {
		if err := e.traceSetup(); err != nil {
			e.close()
			fmt.Fprintf(os.Stderr, "perfbench: %s trace setup: %v\n", *name, err)
			return 2
		}
	}
	runtime.GC()
	rr := runLoop(e, clients, time.Duration(*seconds*float64(time.Second)), traced)
	var allocsPerRep float64
	if traced {
		allocsPerRep = e.measureAllocs(rr.recs)
	}
	e.verify(rr)
	e.close()

	fmt.Printf("machine nproc=%d gomaxprocs=%d go=%s clients=%d serve.Config={Workers:1} seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients, *seed, *seconds)

	acc := accountFailures(rr)
	fmt.Printf("ops workload=%s attempted=%d succeeded=%d failed=%d non_200=%d transport=%d call_error=%d check=%d unknown_refs=%d\n",
		*name, acc.attempted, acc.attempted-acc.failed, acc.failed, acc.byClass[failNon200], acc.byClass[failTransport],
		acc.byClass[failCall], acc.byClass[failCheck], acc.unknownRefs)
	for _, msg := range acc.messages {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}

	res := result{Correct: acc.failed == 0, Attempted: acc.attempted, Failed: acc.failed, Metrics: map[string]metric{}}
	if traced {
		layers := layerValues(e, rr, allocsPerRep)
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metric{Value: finite(layers[lm.name]), Unit: lm.unit}
		}
		if err := writeTrace(e, rr, layers, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			res.Correct = false
		}
	} else {
		res.Metrics = endToEnd(e, rr, stats.Quantile(setupS, 0.5))
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// maxChunks bounds how many slices of the loop the latency and rate
// metrics are computed over. Each metric reports the median of its
// per-slice values, so a stretch in which the shared machine takes CPU
// away moves it less than a whole-run figure would. A slice is a run
// of consecutive op indices holding a whole number of windows, so
// every slice runs every pooled input equally often and slices differ
// only in how fast the machine ran them. Ops past the last whole slice
// count toward ok_frac only.
const maxChunks = 10

// loopFigures are the latency and rate figures of a loop, each the
// median over its slices.
type loopFigures struct {
	p50, p90, opsPerS, repsPerS float64
}

func figures(rr *runResult, window int) loopFigures {
	ops := slices.Clone(rr.ops)
	sort.Slice(ops, func(a, b int) bool { return ops[a].idx < ops[b].idx })
	// Clients claim op indices in order, so the executed ops are
	// 0..len-1 and op k*size starts a slice.
	size := window * max((len(ops)/window+maxChunks-1)/maxChunks, 1)
	chunks := len(ops) / size
	if chunks == 0 {
		// Shorter than one window: one slice of every op.
		chunks, size = 1, len(ops)
	}
	var p50, p90, rate, reps []float64
	for k := 0; k < chunks; k++ {
		part := ops[k*size : (k+1)*size]
		from, to := part[0].start, rr.wall
		if (k+1)*size < len(ops) {
			to = ops[(k+1)*size].start
		}
		secs := (to - from).Seconds()
		lat, ok, n := opLatencies(part)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		rate = append(rate, float64(ok)/secs)
		reps = append(reps, float64(n)/secs)
	}
	return loopFigures{quantile(p50, 0.5), quantile(p90, 0.5), quantile(rate, 0.5), quantile(reps, 0.5)}
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(e *env, rr *runResult, setupS float64) map[string]metric {
	f := figures(rr, e.window)
	_, ok, _ := opLatencies(rr.ops)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"op_ms_p50":        {finite(f.p50), "ms"},
		"op_ms_p90":        {finite(f.p90), "ms"},
		"ops_per_s":        {f.opsPerS, "1/s"},
		"ok_frac":          {float64(ok) / float64(len(rr.ops)), "fraction"},
		"mc_reps_per_s":    {f.repsPerS, "1/s"},
		"makespan_over_lb": {makespanOverLB(rr.recs, e.window), "ratio"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// opLatencies returns every attempted op's latency — +Inf for a failed
// op, which therefore misses every percentile — plus the succeeded op
// count and the Monte Carlo repetitions actually simulated.
func opLatencies(ops []opTiming) (lat []float64, ok, reps int) {
	lat = make([]float64, len(ops))
	for i, r := range ops {
		if !r.ok {
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = r.ms
		ok++
		reps += r.reps
	}
	return lat, ok, reps
}

// makespanOverLB is the geometric mean of estimate mean over lower
// bound across the ops of the deterministic window [0, window), so it
// repeats exactly for a seed whatever the run's timing.
func makespanOverLB(recs []opRecord, window int) float64 {
	var sum float64
	n := 0
	for _, r := range recs {
		if r.idx < window && r.ratio > 0 {
			sum += math.Log(r.ratio)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// finite maps the +Inf a failed op contributes to a percentile onto
// the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// reported by Linux in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
