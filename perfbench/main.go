// Command perfbench is the repository benchmark: one process runs one
// workload for a fixed time, checks every output, and prints its metrics
// as a JSON object on the last line of standard output.
//
//	perfbench --workload reproduce --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md in this directory):
//
//	reproduce   core.Compare on the reproduce apps, verified, plans vs golden
//	serve-hit   2 closed-loop clients against a warmed in-process aptgetd
//	serve-cold  the same clients, every request a miss on a fresh daemon
//	fleet-hit   serve-hit's traffic through aptrouter to 2 in-process shards
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// untraced window, then a traced one that times each call the benchmark
// makes into a layer, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef is one reported metric. The lists mirror BENCHMARK.json's
// end_to_end and per_layer entries; TestMetricListsMatchBenchmarkJSON
// keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"aptget_speedup", "x"},
}

var perLayer = []metricDef{
	{"cpu.run_ms.baseline", "ms"},
	{"cpu.run_ms.static", "ms"},
	{"cpu.run_ms.aptget", "ms"},
	{"cpu.sim_minstr_per_s", "Minstr/s"},
	{"cpu.instructions", "count"},
	{"profile.collect_ms", "ms"},
	{"profile.lbr_samples", "count"},
	{"profile.delinquent_loads", "count"},
	{"profile.select_us", "us"},
	{"mem.llc_mpki.baseline", "1/kinstr"},
	{"mem.llc_mpki.aptget", "1/kinstr"},
	{"mem.prefetch_accuracy", "ratio"},
	{"mem.late_prefetch_ratio", "ratio"},
	{"workloads.new_ms", "ms"},
	{"ir.build_ms", "ms"},
	{"workloads.verify_ms", "ms"},
	{"analysis.analyze_ms", "ms"},
	{"analysis.plans", "count"},
	{"passes.aptget_ms", "ms"},
	{"passes.static_ms", "ms"},
	{"passes.instrs_added", "count"},
	{"wire.decode_profile_ms", "ms"},
	{"wire.decode_profile_mb_per_s", "MB/s"},
	{"wire.encode_plans_us", "us"},
	{"wire.decode_plans_us", "us"},
	{"planstore.get_us", "us"},
	{"planstore.put_us", "us"},
	{"planstore.hit_ratio", "ratio"},
	{"service.ingest_ms", "ms"},
	{"service.plans_ms", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.rejected", "count"},
	{"router.hop_ms", "ms"},
	{"router.failovers", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// clients is the closed-loop client count of the serve workloads, capped
// at the core count so client and server work never oversubscribe.
func clients() int { return min(2, runtime.NumCPU()) }

// options is one run's command line.
type options struct {
	seconds  float64
	trace    bool
	traceDir string
}

// tally counts ops and keeps the first few failures. Safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

const keepErrs = 5

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail counts an attempted op that failed, or, with attempted false, a
// check made after the timed window.
func (t *tally) fail(attempted bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if attempted {
		t.attempted++
	}
	t.failed++
	if len(t.errs) < keepErrs {
		t.errs = append(t.errs, err.Error())
	}
}

// report is what a workload measured.
type report struct {
	tally
	setupS  []float64
	latMs   []float64 // untraced per-op latencies
	groups  []int     // tail group of each latency (see groupedTail)
	windowS float64   // untraced timed window
	rssMB   float64   // peak RSS at the end of the untraced window
	// simInstr / simS give sim_minstr_per_s; speedups give
	// aptget_speedup (one per app).
	simInstr uint64
	simS     float64
	speedups []float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	notes []string
	// ref is sampled between timed phases; it scales host times.
	ref *reference
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "reproduce | serve-hit | serve-cold | fleet-hit")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed window length in seconds")
	traceFlag := fs.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write their spans")
	commit := fs.String("commit", "unknown", "git commit stamped on the output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	in, err := genInputs(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	opt := options{seconds: *seconds, trace: *traceFlag == 1, traceDir: *traceDir}
	fmt.Fprintf(stdout, "stamp: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d clients=%d go=%s commit=%s\n",
		*workload, *seed, *seconds, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		clients(), runtime.Version(), *commit)

	var rep *report
	switch *workload {
	case "reproduce":
		rep, err = runReproduce(in, opt)
	default:
		rep, err = runServe(in, opt)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}

	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if opt.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{rep.layer[m.name], m.unit}
		}
	} else {
		e2e, raw := endToEndValues(rep)
		fmt.Fprintf(stdout, "reference: median chunk %.3f ms over %d chunks, scale %.4f (nominal %.1f ms)\n",
			rep.ref.medianMs(), len(rep.ref.ms), rep.ref.scale(), refNominalMs)
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "raw %-30s %14.6g %s\n", m.name, raw[m.name], m.unit)
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// endToEndValues derives the end-to-end metrics from a report: host
// times and rates as measured (raw) and scaled to the nominal reference
// speed (calib.go), which is what the result reports.
func endToEndValues(rep *report) (scaled, raw map[string]float64) {
	tl, _ := groupedTail(rep.latMs, rep.groups)
	raw = map[string]float64{
		"setup_s":          median(rep.setupS),
		"p50_ms":           median(rep.latMs),
		"tail_ms":          tl,
		"throughput_per_s": float64(len(rep.latMs)) / rep.windowS,
		"peak_rss_mb":      rep.rssMB,
		"aptget_speedup":   geomean(rep.speedups),
	}
	if rep.attempted > 0 {
		raw["success_rate"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	if rep.simS > 0 {
		raw["sim_minstr_per_s"] = float64(rep.simInstr) / 1e6 / rep.simS
	}
	scaled = map[string]float64{}
	for k, v := range raw {
		scaled[k] = v
	}
	s := rep.ref.scale()
	for _, k := range []string{"setup_s", "p50_ms", "tail_ms"} {
		scaled[k] = raw[k] * s
	}
	for _, k := range []string{"throughput_per_s", "sim_minstr_per_s"} {
		scaled[k] = raw[k] / s
	}
	return scaled, raw
}

// printMetrics writes one "name value unit" line per metric.
func printMetrics(w io.Writer, metrics map[string]metricValue) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-30s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// latencySummary renders the latency distribution of a window.
func latencySummary(lat []float64, groups []int, windowS float64) string {
	tl, label := groupedTail(lat, groups)
	return fmt.Sprintf("ops=%d window=%.2fs p50=%.3fms tail(%s)=%.3fms", len(lat), windowS, median(lat), label, tl)
}

// traceFile names the span file of a traced run.
func traceFile(dir string, in inputs) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", in.Workload, in.Seed))
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
