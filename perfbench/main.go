// Command perfbench is valueprof's benchmark: it runs one named
// workload from a seed, checks every output, and prints every metric by
// name with its unit. The last line of its standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 a separate,
// traced run reports the per-layer ones and writes its spans under
// .bench_build/perfbench. See README.md for the workloads and the
// metric → layer → workload map.
//
//	go run . --workload suite-full --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"valueprof/internal/workloads"
)

// setupReps is how many times a run sets up; setup_s is the median.
// Each set-up starts from a collected heap.
const setupReps = 21

// setupRefSlices is how many reference slices time the host before
// each set-up, suiteRefSlices before each suite job, and
// daemonRefSlices at each pause of the daemon load.
const (
	setupRefSlices  = 5
	suiteRefSlices  = 2
	daemonRefSlices = 40
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of valueprof sees; every workload
// reports all of them with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"profiled_minst_s", "Minst/s"},
	{"bare_minst_s", "Minst/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"jobs_s", "jobs/s"},
	{"live_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics come from the traced run; every workload reports all
// of them with --trace 1.
var perLayerMetrics = []metricDef{
	{"vm.bare_ns_per_inst", "ns"},
	{"atom.prepare_us", "us"},
	{"core.overhead_x", "x"},
	{"core.hook_ns_per_delivered", "ns"},
	{"core.hook_ns_per_profiled", "ns"},
	{"core.duty_cycle", "ratio"},
	{"core.flush_ms", "ms"},
	{"core.tnv_add_ns.skewed", "ns"},
	{"core.tnv_add_ns.uniform", "ns"},
	{"core.record_ms", "ms"},
	{"core.record_kb", "KB"},
	{"core.checkpoint_encode_ms", "ms"},
	{"core.checkpoint_decode_ms", "ms"},
	{"core.checkpoint_kb", "KB"},
	{"core.merge_ms", "ms"},
	{"parallel.allocs_per_job", "count"},
	{"parallel.alloc_kb_per_job", "KB"},
	{"minic.compile_ms", "ms"},
	{"analysis.verify_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.result_fetch_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.queue_wait_p95_ms", "ms"},
	{"serve.digest_us", "us"},
	{"serve.submit_hit_ratio", "ratio"},
	{"serve.jobs_retained", "count"},
	{"serve.cache_entries", "count"},
	{"trace.overhead_pct", "%"},
}

var workloadNames = []string{"suite-full", "suite-sampled", "daemon-mixed"}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// ws are the workloads the jobs draw on: all of them, except in the
	// benchmark's own tests.
	ws []*workloads.Workload
	// minPasses and minRounds are the fewest suite passes and daemon
	// client rounds a run makes, however short --seconds is.
	minPasses, minRounds int
	// root holds the daemon state directories and the trace file.
	root string
}

// Run sizes. Three daemon rounds of two 20-job clients leave at least
// ten latency samples beyond p90. Three suite passes of 20 jobs give a
// median pass; when the host steals a third of the CPU time, they
// already take about 25 s, so more would stretch a run past its time.
const (
	minSuitePasses  = 3
	minDaemonRounds = 3
)

// report collects one run's measurements and checks.
type report struct {
	seed uint64
	chk  checker
	// setups are the set-up times as measured, setupSpeed the host's
	// speed before each, and setupHost the set-up phase's CPU counters.
	setups, setupSpeed []float64
	setupHost          hostRef
	metrics            map[string]float64
	// raw holds the timing metrics as measured, before scaling to
	// reference host speed (see calib.go), and the timed phase's median
	// host speed and stolen share.
	raw   map[string]float64
	trace *tracer
	last  time.Time // end of the previous phase
}

func newReport(o *options) *report {
	return &report{seed: o.seed, metrics: map[string]float64{}, raw: map[string]float64{}, last: time.Now()}
}

// phase logs how long the phase that just ended took, on stderr.
func (r *report) phase(name string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %-8s %6.2fs\n", name, now.Sub(r.last).Seconds())
	r.last = now
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// setup runs one set-up from a collected heap and times it, with
// reference slices just before it for the host's speed. The set-ups
// share one stolen share, over the phase that setupHost brackets.
func (r *report) setup(f func() error) error {
	runtime.GC()
	var h hostRef
	h.sample(setupRefSlices)
	t := time.Now()
	err := f()
	d := time.Since(t).Seconds()
	r.setups = append(r.setups, d)
	r.setupSpeed = append(r.setupSpeed, h.speed())
	return err
}

// timings are a run's timing metrics, either as measured or at
// reference host speed: times multiplied by the scale of the phase they
// were taken in, rates divided by it (see calib.go).
type timings struct {
	profMinst, bareMinst, jobsPerSec float64
	latMs                            []float64
}

// endToEnd sets the timing metrics every workload reports: at
// reference speed as metrics, as measured in raw.
func (r *report) endToEnd(raw, ref timings, speed, stolen float64) {
	r.raw["timed_host_speed"], r.raw["timed_stolen"] = speed, stolen
	setupsRef := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setupsRef[i] = d * hostScale(r.setupSpeed[i], r.setupHost.stolen())
	}
	for _, m := range []struct {
		name     string
		raw, ref float64
	}{
		{"setup_s", median(r.setups), median(setupsRef)},
		{"profiled_minst_s", raw.profMinst, ref.profMinst},
		{"bare_minst_s", raw.bareMinst, ref.bareMinst},
		{"job_latency_p50_ms", median(raw.latMs), median(ref.latMs)},
		{"job_latency_p90_ms", percentile(raw.latMs, 90), percentile(ref.latMs, 90)},
		{"jobs_s", raw.jobsPerSec, ref.jobsPerSec},
	} {
		r.raw[m.name] = m.raw
		r.set(m.name, m.ref)
	}
}

// peakRSS reads the process's peak resident set (VmHWM). It is read
// when the timed phase ends, before the verification pass.
func (r *report) peakRSS() {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		r.chk.op("peak RSS", err)
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if r.chk.op("peak RSS", err) {
				r.set("peak_rss_mb", kb/1024)
			}
			return
		}
	}
	r.chk.op("peak RSS", fmt.Errorf("no VmHWM in /proc/self/status"))
}

// liveHeap records the live heap after collection: what the process
// keeps after the run's jobs. The second collection empties sync.Pool
// victim caches, whose contents the runtime frees anyway, so the figure
// does not depend on when the last automatic collection happened.
func (r *report) liveHeap() {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	r.set("live_heap_mb", float64(s[0].Value.Uint64())/(1<<20))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result selects the metrics of the mode and requires each to be
// present.
func (r *report) result(trace bool) (*resultOut, error) {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	out := &resultOut{
		Correct:   r.chk.failed == 0 && r.chk.attempted > 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func run(ctx context.Context, o *options) (*report, error) {
	switch o.workload {
	case "suite-full":
		return runSuite(ctx, o, "full")
	case "suite-sampled":
		return runSuite(ctx, o, "convergent")
	case "daemon-mixed":
		return runDaemonMixed(ctx, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := &options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		ws: workloads.All(), minPasses: minSuitePasses, minRounds: minDaemonRounds,
		root: filepath.Join(".bench_build", "perfbench")}

	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": *seconds, "trace": *trace,
		"numCPU": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := rep.result(o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range rep.chk.msgs {
		fmt.Fprintln(os.Stderr, "check failed:", m)
	}
	rawJSON, _ := json.Marshal(rep.raw)
	fmt.Printf("raw %s\n", rawJSON)
	if rep.trace != nil {
		rep.trace.finish()
		path := filepath.Join(o.root, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := rep.trace.write(path, env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
