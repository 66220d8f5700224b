// Command dtbench is the repository benchmark: it runs one seeded workload
// against the D-Tucker library and the dtuckerd service, checks every output,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	dtbench --workload batch-cold|refit|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it spends half of --seconds on an untraced pass and half on a
// traced pass, and reports the per-layer metrics: timings from the untraced
// pass, spans and kernel counts from the traced one, and the tracing
// overhead between the two. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a --trace 0 run sets its workload up; it
// reports the median set-up time and measures on the last set-up.
const setupReps = 5

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	// setup builds the inputs from the seed and prepares the program. It is
	// timed as setup_s. traced tells it whether the pass records spans and
	// counters, d how long the pass will measure.
	setup func(seed int64, traced bool, d time.Duration) (instance, error)
	// procs is the GOMAXPROCS the workload runs under; 0 keeps one per CPU.
	procs int
}

// instance is one set-up workload.
type instance interface {
	// measure runs the timed operations for p.d.
	measure(p *pass) error
	// verify checks the outputs measure collected, outside the timed
	// window.
	verify(p *pass) error
	close()
}

var workloads = []benchWorkload{
	{name: "batch-cold", setup: setupBatchCold},
	// refit is the single-thread baseline: solve, pool hand-offs and garbage
	// collection all share one CPU.
	{name: "refit", setup: setupRefit, procs: 1},
	{name: "serve-mixed", setup: setupServeMixed},
}

// pass is one measured run of an instance.
type pass struct {
	seed int64
	d    time.Duration
	tr   *tracer // nil when untraced
	res  *result
}

// result collects what a pass measured.
type result struct {
	attempted, failed int
	problems          []string
	samples           map[string][]float64
	layer             map[string]float64
	env               map[string]any
	peakHeapMiB       float64
}

func newResult() *result {
	return &result{samples: make(map[string][]float64), layer: make(map[string]float64), env: make(map[string]any)}
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// fail records a failed or incorrect operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: batch-cold, refit or serve-mixed")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1 adds a traced pass, reports per-layer metrics and writes spans to .bench_build/spans-<workload>-<seed>.jsonl")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dtbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "dtbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}

	var (
		res     *result
		metrics map[string]metric
		err     error
	)
	if *traced == 0 {
		res, metrics, err = runPlain(w, *seed, d)
	} else {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		res, metrics, err = runTraced(w, *seed, d, path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "dtbench: %s: %s\n", w.name, p)
	}
	res.env["workload"] = w.name
	res.env["seed"] = *seed
	res.env["seconds"] = *seconds
	res.env["trace"] = *traced
	addHostEnv(res.env)
	if b, err := json.Marshal(map[string]any{"env": res.env}); err == nil {
		fmt.Println(string(b))
	}
	correct := res.failed == 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// onePass sets the workload up, measures it and verifies its outputs.
func onePass(w benchWorkload, seed int64, d time.Duration, tr *tracer) (*result, time.Duration, error) {
	t0 := time.Now()
	inst, err := w.setup(seed, tr != nil, d)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)
	defer inst.close()
	p := &pass{seed: seed, d: d, tr: tr, res: newResult()}
	if err := inst.measure(p); err != nil {
		return nil, 0, fmt.Errorf("measure: %w", err)
	}
	if err := inst.verify(p); err != nil {
		return nil, 0, fmt.Errorf("verify: %w", err)
	}
	if p.res.attempted < 1 {
		return nil, 0, fmt.Errorf("no operation completed in %v", d)
	}
	return p.res, setup, nil
}

// runPlain is a --trace 0 run: repeated set-ups, one untraced pass, and the
// end-to-end metrics.
func runPlain(w benchWorkload, seed int64, d time.Duration) (*result, map[string]metric, error) {
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		t0 := time.Now()
		inst, err := w.setup(seed, false, d)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst.close()
		// Every set-up starts from a collected heap. Later set-ups reuse the
		// memory the process already holds: page faults on fresh memory cost
		// what the host's virtual memory makes them cost, and spread the
		// median widely between runs.
		runtime.GC()
	}
	res, setup, err := onePass(w, seed, d, nil)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, setup.Seconds())
	res.env["setup_s_all"] = setups
	res.env["solve_samples"] = len(res.samples["solve_s"])
	res.env["solve_s_min_q1_q3_max"] = spreadOf(res.samples["solve_s"])
	res.env["fit_samples"] = len(res.samples["fit"])
	return res, endToEnd(res, setups), nil
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(res *result, setups []float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"solve_s_p50":  {orZero(median(res.samples["solve_s"])), "s"},
		"peak_heap_mb": {res.peakHeapMiB, "MiB"},
		"fit":          {orZero(median(res.samples["fit"])), "1"},
	}
}

// runTraced is a --trace 1 run: an untraced pass and a traced pass of half
// the time each. Every per-layer figure the untraced pass can measure —
// phase times, allocation, serving latencies, client and server figures,
// failed_share — comes from it. The traced pass adds only what needs its
// spans or its metrics collector: self times, kernel counts and the pool.
// Its spans are written to spanPath.
func runTraced(w benchWorkload, seed int64, d time.Duration, spanPath string) (*result, map[string]metric, error) {
	plain, _, err := onePass(w, seed, d/2, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced pass: %w", err)
	}
	runtime.GC()
	tr := newTracer()
	res, _, err := onePass(w, seed, d/2, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	sum, err := tr.summarize()
	if err != nil {
		return nil, nil, err
	}
	for name, v := range plain.layer {
		res.layer[name] = v
	}
	sum.layerMetrics(res.layer)
	res.layer["failed_share"] = float64(plain.failed) / float64(plain.attempted)
	base := median(plain.samples["solve_s"])
	res.layer["trace.overhead_pct"] = orZero(100 * (median(res.samples["solve_s"]) - base) / base)
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.write(spanPath); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	res.env["span_file"] = spanPath
	res.env["untraced_solve_samples"] = len(plain.samples["solve_s"])
	res.env["traced_solve_samples"] = len(res.samples["solve_s"])
	// The untraced pass's sample counts and rates back the figures taken
	// from it.
	res.env["untraced_pass"] = plain.env
	// Failures of either pass fail the run.
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.problems = append(plain.problems, res.problems...)

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{orZero(res.layer[m.name]), m.unit}
	}
	return res, out, nil
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric BENCHMARK.json names (a test keeps
// the two in step). A layer a workload does not exercise reports 0.
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"core.approx_s", "s"}, {"core.storage_mb", "MiB"}, {"core.approx_flops_per_byte", "flop/B"},
		{"core.init_s", "s"}, {"core.iter_s", "s"}, {"core.sweep_ms", "ms"}, {"core.iters", "count"},
	}
	for _, c := range kernelCounters {
		ms = append(ms, layerMetric{c.name, c.unit})
		for _, ph := range phaseNames {
			ms = append(ms, layerMetric{c.name + "." + ph, c.unit})
		}
	}
	ms = append(ms,
		layerMetric{"pool.busy_frac", "1"}, layerMetric{"pool.tasks", "count"}, layerMetric{"core.alloc_mb", "MiB"},
		layerMetric{"client.submit_ms", "ms"}, layerMetric{"server.queue_wait_ms", "ms"},
		layerMetric{"server.shed", "count"}, layerMetric{"server.coalesced", "count"},
		layerMetric{"server.run_ms", "ms"}, layerMetric{"server.cache_hit_share", "1"},
		layerMetric{"client.result_ms", "ms"}, layerMetric{"client.polls", "count"},
		layerMetric{"rangeidx.stitch_share", "1"}, layerMetric{"rangeidx.node_hits", "count"},
		layerMetric{"rangeidx.node_builds", "count"},
		layerMetric{"gen.late_ms_max", "ms"}, layerMetric{"trace.overhead_pct", "%"},
		layerMetric{"decompose_cold_ms_p50", "ms"}, layerMetric{"decompose_cold_ms_p90", "ms"},
		layerMetric{"decompose_hit_ms_p50", "ms"}, layerMetric{"range_ms_p50", "ms"},
		layerMetric{"range_ms_p90", "ms"}, layerMetric{"range_fit_p50", "1"},
		layerMetric{"append_ms_p50", "ms"}, layerMetric{"failed_share", "1"},
	)
	for _, s := range layerSpans {
		ms = append(ms, layerMetric{"self_ms." + s, "ms"})
	}
	return append(ms, layerMetric{"trace.unattributed_pct", "%"}, layerMetric{"trace.spans", "count"})
}()

// addHostEnv records the machine the numbers come from.
func addHostEnv(env map[string]any) {
	env["nproc"] = runtime.NumCPU()
	env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	env["go_version"] = runtime.Version()
	env["l3_bytes"] = l3Bytes()
}

// l3Bytes reads the size of the largest CPU cache from sysfs, 0 when it is
// not available.
func l3Bytes() int64 {
	var best int64
	for idx := 0; idx < 8; idx++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var n int64
		if _, err := fmt.Sscan(s, &n); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}
