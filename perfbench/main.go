// Command perfbench is rlcint's end-to-end benchmark. One invocation runs
// one workload from one process for a fixed time, checks every output
// against a reference, and prints one JSON result line:
//
//	perfbench -workload sweep -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics (set-up time,
// throughput, latency median and tail, CPU per op, peak RSS). With -trace 1
// the workload runs untraced and then traced, spans around every call the
// benchmark makes into a layer are written to <out>/spans-<workload>-<seed>.json,
// and the result holds the per-layer metrics. -genref regenerates the
// stored references under ref/ from the current code (run it from the
// repository root). run.sh builds and runs it from source; manifest.json
// records why each workload exists and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a -trace 0 run sets the workload up; setup_s
// is the median.
const setupReps = 5

// workload is one benchmark input set. A workload value serves a single
// set-up: make a new one to set up again.
type workload interface {
	// setup generates the seeded inputs, loads the references, and starts
	// and warms whatever the timed window needs.
	setup(seed int64) error
	// run executes ops for window (traced when tr is non-nil).
	run(window time.Duration, tr *tracer) runStats
	// probe measures the per-layer metrics into m after a traced run.
	probe(tr *tracer, m metrics) error
	// close stops everything setup started and waits for it.
	close()
	// tail is the fixed tail percentile reported as op_tail_ms.
	tail() float64
}

var workloads = map[string]func() workload{
	"sweep":       func() workload { return &sweepWL{} },
	"transient":   func() workload { return &transientWL{} },
	"pdn-mesh":    func() workload { return &pdnWL{} },
	"serve-mixed": func() workload { return &serveWL{} },
}

// runStats is what one timed window produced.
type runStats struct {
	lat       []float64 // per-op latency, ms
	attempted int
	failed    int
	elapsed   time.Duration
}

func (s runStats) opsPerSec() float64 {
	return float64(s.attempted-s.failed) / s.elapsed.Seconds()
}

// metrics maps a metric name to its value.
type metrics map[string]float64

// endToEnd and perLayer list every reported metric with its unit, in the
// order of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"pade.delay_us", "us"},
	{"core.evals_per_opt.warm", "count"},
	{"core.evals_per_opt.cold", "count"},
	{"core.opt_warm_ms", "ms"},
	{"core.opt_cold_ms", "ms"},
	{"core.newton_iters_per_opt", "count"},
	{"core.stationarity_per_opt", "count"},
	{"core.nm_share", "1"},
	{"core.warm_accept_ratio", "1"},
	{"batch.speedup", "1"},
	{"power.plan_ms", "ms"},
	{"power.front_ms", "ms"},
	{"mor.build_gate_ms", "ms"},
	{"mor.march_ms", "ms"},
	{"mor.engaged_ratio", "1"},
	{"mor.cache_hit_ratio", "1"},
	{"mor.reject_ratio", "1"},
	{"mor.fallback_ratio", "1"},
	{"spice.full_run_ms", "ms"},
	{"spice.steps_per_run", "count"},
	{"pdn.build_ms", "ms"},
	{"pdn.solve_ir_ms", "ms"},
	{"pdn.impedance_point_ms", "ms"},
	{"sparse.cg_iters", "count"},
	{"sparse.fallbacks", "count"},
	{"sparse.cg_share", "1"},
	{"serve.hit_ratio", "1"},
	{"serve.coalesced_ratio", "1"},
	{"serve.reject_ratio", "1"},
	{"serve.degraded_ratio", "1"},
	{"serve.hit_us", "us"},
	{"serve.miss_ms.optimize", "ms"},
	{"serve.miss_ms.delay", "ms"},
	{"serve.miss_ms.plan", "ms"},
	{"serve.miss_ms.sweep", "ms"},
	{"serve.miss_ms.plan-power", "ms"},
	{"serve.slo_rate_rps", "req/s"},
	{"loadgen.late_ms", "ms"},
	{"fail_ratio", "1"},
	{"trace.overhead", "1"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sweep, transient, pdn-mesh or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed window, s")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	genref := flag.Bool("genref", false, "regenerate the stored references under perfbench/ref and exit")
	flag.Parse()

	if *genref {
		if err := generateRefs(); err != nil {
			fatal(err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need -seconds ≥ 1 and -trace 0 or 1"))
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(mk, *seed, window)
	} else {
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		res, err = runTraced(mk, *seed, window, spans)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runEndToEnd sets the workload up setupReps times (keeping the last), runs
// one untraced window and reports the end-to-end metrics.
func runEndToEnd(mk func() workload, seed int64, window time.Duration) (result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			w.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()
	u0 := readUsage()
	st := w.run(window, nil)
	u1 := readUsage()
	st.failed += verifyRun(w)
	if st.attempted == 0 {
		return result{}, errors.New("no op completed in the window")
	}
	lat := st.lat
	tailN := beyond(len(lat), w.tail())
	m := metrics{
		"setup_s":       median(setups),
		"ops_per_s":     st.opsPerSec(),
		"op_p50_ms":     percentile(lat, 50),
		"op_tail_ms":    percentile(lat, w.tail()),
		"cpu_ms_per_op": ms(u1.cpu-u0.cpu) / float64(st.attempted),
		"peak_rss_mb":   float64(u1.maxRSS) / (1 << 20),
	}
	auto, _ := selectTail(len(lat))
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, op_tail_ms = p%g with %d samples beyond (highest eligible p%g); p90/p99/p99.9 %.4g/%.4g/%.4g ms; setups %v s\n",
		len(lat), w.tail(), tailN, auto, percentile(lat, 90), percentile(lat, 99), percentile(lat, 99.9), setups)
	return resultOf(st, m, endToEnd), nil
}

// runTraced runs half the window untraced and half traced, then the
// workload's per-layer probes, and writes the spans to spansPath.
func runTraced(mk func() workload, seed int64, window time.Duration, spansPath string) (result, error) {
	w := mk()
	defer w.close()
	if err := w.setup(seed); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	plain := w.run(window/2, nil)
	plain.failed += verifyRun(w)
	tr := newTracer()
	traced := w.run(window/2, tr)
	traced.failed += verifyRun(w)
	m := metrics{}
	if err := w.probe(tr, m); err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}
	st := runStats{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	if st.attempted == 0 {
		return result{}, errors.New("no op completed in the window")
	}
	m["fail_ratio"] = float64(st.failed) / float64(st.attempted)
	if p := plain.opsPerSec(); p > 0 {
		m["trace.overhead"] = traced.opsPerSec() / p
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return result{}, err
	}
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	return resultOf(st, m, perLayer), nil
}

// verifier is a workload that checks some outputs after its window, untimed.
type verifier interface {
	// verify checks the last window's deferred outputs and returns how many
	// were wrong.
	verify() int
}

func verifyRun(w workload) int {
	if v, ok := w.(verifier); ok {
		return v.verify()
	}
	return 0
}

// resultOf assembles the result line; a metric the workload does not reach
// reads 0.
func resultOf(st runStats, m metrics, defs []metricDef) result {
	r := result{
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return r
}

// closedLoop runs op back to back for window, one at a time, continuing the
// op sequence at *next. Each op is traced as a root span named name.
func closedLoop(window time.Duration, tr *tracer, next *int64, name string,
	op func(i int64, root *active) error) runStats {
	var st runStats
	start := time.Now()
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		i := *next
		*next++
		root := tr.start(name, nil, i)
		t0 := time.Now()
		err := op(i, root)
		st.lat = append(st.lat, ms(time.Since(t0)))
		root.end()
		st.attempted++
		if err != nil {
			st.failed++
			logFailure(st.failed, fmt.Errorf("op %d: %w", i, err))
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// logFailure reports the first few failures of a run on stderr.
func logFailure(n int, err error) {
	if n <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}
