// Command perfbench is the repository benchmark. It drives the public API of
// each layer (forest algorithms, dG mesh and kernels, advection and mantle
// solvers, the job service) from outside, times the calls itself, checks
// that the outputs are correct, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// attaches the program's tracer and metric registry and reports the
// per-layer ones. See README.md for the workloads and the layer map.
//
// Usage (from the repository root, through run.sh, which builds first):
//
//	bash perfbench/run.sh --workload advect-amr --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Every world the benchmark starts names its fabric and worker count
// explicitly: a zero RunOptions.Transport/Workers would read AMR_TRANSPORT
// and AMR_WORKERS, so a stray variable would silently change a workload.
const (
	transport = "chan"
	workers   = 1
)

// runOpts are the options of every world the benchmark starts: the pinned
// fabric and worker count, plus the program's tracer and registry in
// traced runs (nil otherwise).
func runOpts(tr *trace.Tracer, reg *metrics.Registry) mpi.RunOptions {
	return mpi.RunOptions{Tracer: tr, Metrics: reg, Transport: transport, Workers: workers}
}

// config is what one invocation asks of a workload.
type config struct {
	seed    int64
	seconds float64
	outDir  string // traces, per-layer tables and service job directories
	small   bool   // minimal problem sizes, for the benchmark's own tests
	corrupt bool   // perturb recorded reference values, for the same tests
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string // output checks that did not hold
	metrics           map[string]float64
	notes             []string // extra human-readable lines
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload runs one benchmark workload. run measures for cfg.seconds with
// tracing off and fills the end-to-end metrics; traced fills the
// per-layer ones (and trace.overhead_pct).
type workload struct {
	run    func(cfg config) outcome
	traced func(cfg config) outcome
}

var workloads = map[string]workload{
	"advect-amr":            {run: runAdvect, traced: tracedAdvect},
	"forest-fractal":        {run: runForest, traced: tracedForest},
	"serve-mix":             {run: runServe, traced: tracedServe},
	"mantle-stokes":         mantleWorkload(0, 1),
	"mantle-stokes-default": mantleWorkload(1, 3),
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run reports, on every workload.
// A "result" is the workload's unit of useful output: one advection solve
// to the fixed simulated time, one forest pipeline build, one served job,
// or one mantle model run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"result_cpu_s", "s", "lower"},
	{"alloc_mb_per_result", "MB", "lower"},
}

// perLayer are the metrics every traced run reports, on every workload. A
// layer that did no work on a workload reports 0.
var perLayer = []metricDef{
	{"wall.setup_s", "s", "lower"},
	{"wall.result_p50_s", "s", "lower"},
	{"wall.result_p90_s", "s", "lower"},
	{"wall.results_per_s", "1/s", "higher"},
	{"mpi.msgs_per_result", "count", "lower"},
	{"mpi.bytes_per_result", "B", "lower"},
	{"mpi.recv_wait_s", "s", "lower"},
	{"mpi.pingpong_us.chan", "us", "lower"},
	{"mpi.pingpong_us.shm", "us", "lower"},
	{"mpi.bw_gbps.chan", "GB/s", "higher"},
	{"mpi.bw_gbps.shm", "GB/s", "higher"},
	{"host.triad_gbps", "GB/s", "higher"},
	{"mangll.rk_step_s.p50", "s", "lower"},
	{"mangll.rk_step_s.p90", "s", "lower"},
	{"mangll.rhs_s", "s", "lower"},
	{"mangll.exchange_wait_s", "s", "lower"},
	{"mangll.newmesh_s", "s", "lower"},
	{"mangll.elem_rhs_per_s", "1/s", "higher"},
	{"mangll.bytes_per_elem_rhs", "B", "lower"},
	{"mangll.bw_frac", "ratio", "higher"},
	{"core.refine_s", "s", "lower"},
	{"core.partition_s", "s", "lower"},
	{"core.balance_s", "s", "lower"},
	{"core.ghost_s", "s", "lower"},
	{"core.nodes_s", "s", "lower"},
	{"core.balance_s_per_moct", "s", "lower"},
	{"core.nodes_s_per_moct", "s", "lower"},
	{"core.octants", "count", "lower"},
	{"core.balance_rounds", "count", "lower"},
	{"core.balance.imbalance", "ratio", "lower"},
	{"core.balance.wait_share", "ratio", "lower"},
	{"core.partition.imbalance", "ratio", "lower"},
	{"core.partition.wait_share", "ratio", "lower"},
	{"core.ghost.imbalance", "ratio", "lower"},
	{"core.ghost.wait_share", "ratio", "lower"},
	{"core.nodes.imbalance", "ratio", "lower"},
	{"core.nodes.wait_share", "ratio", "lower"},
	{"advect.adapt_s.p50", "s", "lower"},
	{"advect.amr_share", "ratio", "lower"},
	{"advect.elements", "count", "lower"},
	{"advect.adapts_changed", "count", "lower"},
	{"advect.elements_shipped", "count", "lower"},
	{"advect.unattributed_share", "ratio", "lower"},
	{"advect.l2_err", "1", "lower"},
	{"advect.mass_drift", "1", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.queue_wait_ms.p50", "ms", "lower"},
	{"serve.queue_wait_ms.p90", "ms", "lower"},
	{"serve.run_ms.advect", "ms", "lower"},
	{"serve.run_ms.advect_ckpt", "ms", "lower"},
	{"serve.run_ms.seismic", "ms", "lower"},
	{"serve.ckpt_ms", "ms", "lower"},
	{"serve.gen_late_ms", "ms", "lower"},
	{"serve.retries_429", "count", "lower"},
	{"stokes.minres_iters_per_solve", "count", "lower"},
	{"stokes.vcycle_s", "s", "lower"},
	{"stokes.amg_setup_s", "s", "lower"},
	{"stokes.matvec_s", "s", "lower"},
	{"rhea.amr_s", "s", "lower"},
	{"rhea.elements", "count", "lower"},
	{"rhea.unknowns", "count", "lower"},
	{"mantle.relres", "1", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for traces, per-layer tables and job data")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s transport=%s workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), transport, workers)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)

	cfg := config{seed: *seed, seconds: *seconds, outDir: *out}
	var o outcome
	defs := endToEnd
	if *traceFlag == 1 {
		o = w.traced(cfg)
		defs = perLayer
	} else {
		o = w.run(cfg)
	}
	res, err := o.result(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Println("check failed:", p)
	}
	for _, d := range defs {
		fmt.Printf("%-28s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result checks that the outcome carries exactly the metrics defs names,
// each finite, and assembles the JSON result.
func (o outcome) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if o.attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not in the reported set", name)
		}
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the processor name the results were measured on.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
