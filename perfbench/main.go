// Command perfbench is the repository's end-to-end benchmark: one command
// that runs a learning-everywhere workload against the real serving and
// learning stack, checks the answers, and prints every metric by name with
// its unit and sample count. See README.md for the workloads, the metric
// definitions and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root, through run.sh so the build stays
// inside the checkout):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separately traced run. Exit status is non-zero when the run could not
// complete; a completed run whose answers fail a check prints
// "correct": false.
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
	"time"
)

// metric is one reported number with its unit and the number of samples
// it summarises (1 for a single measurement).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	// extra holds figures printed and recorded beside the metrics but
	// not part of the final JSON line (its metric set is fixed).
	extra map[string]metric
	// inputs records the frozen workload parameters (rates, gate, oracle
	// run sizes) next to the machine shape.
	inputs map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, extra: map[string]metric{}, inputs: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *report) setExtra(name string, v float64, unit string, n int) {
	r.extra[name] = metric{Value: v, Unit: unit, N: n}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository checkout holding the sources
	out      string // directory for temporary registries, spans and records
}

// workloads maps each workload name to its runner. A runner measures for
// opt.seconds and fills r with the end-to-end metrics (trace off) or the
// per-layer metrics (trace on).
var workloads = map[string]func(opt options, r *report) error{
	"sweep":       runSweep,
	"serve-hot":   runServeHot,
	"serve-learn": runServeLearn,
}

func main() {
	var opt options
	var seed int64
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "sweep, serve-hot or serve-learn")
	flag.Int64Var(&seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "repository root")
	flag.StringVar(&opt.out, "out", ".bench_build/perfbench", "directory for run artifacts")
	genChild := flag.Bool("gen-child", false, "run as the load-generator process of a serving run")
	flag.Parse()
	if *genChild {
		if err := runGenChild(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench generator:", err)
			os.Exit(1)
		}
		return
	}
	opt.seed = uint64(seed)
	opt.trace = trace == 1
	run, ok := workloads[opt.workload]
	if !ok || seed < 0 || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %g, trace %d)\n",
			opt.workload, seed, opt.seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newReport()
	t0 := time.Now()
	if err := run(opt, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if opt.trace {
		fillLayers(r)
	}
	checkFinite(r)
	meta := machineShape(opt)
	meta["wall_s"] = time.Since(t0).Seconds()
	printReport(opt, r, meta)
	if err := writeRecord(opt, r, meta); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result record:", err)
	}
	if err := printResult(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checkFinite fails the run when a reported metric is not a finite number.
func checkFinite(r *report) {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", name, m.Value)
		}
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// printReport writes the human-readable lines: machine shape and inputs,
// every metric with unit and sample count, and any failed check.
func printReport(opt options, r *report, meta map[string]any) {
	mode := "end-to-end"
	if opt.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g metrics=%s\n", opt.workload, opt.seed, opt.seconds, mode)
	fmt.Printf("# machine nproc=%v gomaxprocs=%v cpu=%q go=%v commit=%v source=%v\n",
		meta["nproc"], meta["gomaxprocs"], meta["cpu_model"], meta["go_version"], meta["commit"], meta["source_sha256"])
	keys := make([]string, 0, len(r.inputs))
	for k := range r.inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# input %s=%v\n", k, r.inputs[k])
	}
	for _, name := range sortedNames(r.metrics) {
		m := r.metrics[name]
		fmt.Printf("%-28s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedNames(r.extra) {
		m := r.extra[name]
		fmt.Printf("  %-26s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("# attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
}

// writeRecord stores the full result (metrics with sample counts, inputs
// and machine shape) under the run-artifact directory.
func writeRecord(opt options, r *report, meta map[string]any) error {
	dir := filepath.Join(opt.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type rec struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"samples"`
	}
	ms := map[string]rec{}
	for k, m := range r.metrics {
		ms[k] = rec{m.Value, m.Unit, m.N}
	}
	xs := map[string]rec{}
	for k, m := range r.extra {
		xs[k] = rec{m.Value, m.Unit, m.N}
	}
	doc := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"machine": meta, "inputs": r.inputs, "metrics": ms, "extra": xs,
		"attempted": r.attempted, "failed": r.failed, "problems": r.problems,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", opt.workload, opt.seed, opt.trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printResult prints the final machine-readable line.
func printResult(r *report) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for k, m := range r.metrics {
		ms[k] = val{m.Value, m.Unit}
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, ms}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// machineShape records what a result depends on besides the code: core
// count, scheduler width, CPU model, toolchain and source revision.
func machineShape(opt options) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        gitCommit(opt.root),
		"source_sha256": sourceDigest(opt.root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
