// Command perfbench drives the tinymlops platform end to end on one seeded
// workload and prints one JSON result line as the last line of standard
// output. The workloads, metric names, units and regression bounds are
// declared in BENCHMARK.json at the repository root.
//
//	bash perfbench/run.sh --workload serve_settle --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run first repeats the workload untraced
// for half the time (the reference for trace.overhead_frac), then traced,
// then runs short traced probes of the other layer runs, and the result
// carries the per-layer metrics; the spans of a sample of requests are
// written to --spans when the run ends.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's measurements by name.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// outcome is what one workload run returns to main.
type outcome struct {
	// attempted and failed count operations; a failure is any denied,
	// rejected, errored or wrong answer, or an offload fallback.
	attempted, failed int64
	// problems lists failed output checks by description (first few).
	problems []string
	// e2e holds the end-to-end metrics (--trace 0), layer the per-layer
	// metrics (--trace 1).
	e2e, layer metrics
	// samples records the sample count behind each latency distribution.
	samples map[string]int64
	// closure records, for a traced run, each stage sum as a share of the
	// span it should add up to, and closureTol the share by which it may
	// be off.
	closure, closureTol map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layer: metrics{}, samples: map[string]int64{},
		closure: map[string]float64{}, closureTol: map[string]float64{}}
}

// fail counts one failed operation and keeps its description if it is
// among the first few.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// absorb adds another outcome's operation counts and problems.
func (o *outcome) absorb(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, s := range p.problems {
		if len(o.problems) < 8 {
			o.problems = append(o.problems, s)
		}
	}
}

// options are the settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke runs the workload at minimal size; only the smoke test sets it.
	smoke bool
	// probe marks a short layer run inside another workload's traced run.
	probe bool
	procs int
}

// enforce reports whether a run has enough samples for its percentile and
// stage-sum checks to be enforced: smoke runs and probes check plumbing
// only.
func (o options) enforce() bool { return !o.smoke && !o.probe }

// runner runs one workload or layer run.
type runner func(opts options, tr *tracer) (*outcome, error)

// workloads maps workload names to their runners.
var workloads = map[string]runner{
	"serve_settle": runServe,
	"update_cycle": runUpdate,
}

// layerRuns are the traced runs that yield the per-layer metrics. A
// workload's traced run adds, after its own, a short probe of each other
// layer run, so every traced result carries every per-layer metric; the
// metrics a workload measures itself are never replaced by a probe's.
var layerRuns = []struct {
	name string
	run  runner
}{
	{"serve_settle", runServe},
	{"update_cycle", runUpdate},
	{"offload", runOffload},
}

// probeSeconds is the length of each probe in a traced run.
const probeSeconds = 3

// runWorkload runs a workload and, when traced, the probes of the other
// layer runs.
func runWorkload(name string, opts options, tr *tracer) (*outcome, error) {
	out, err := workloads[name](opts, tr)
	if err != nil || !opts.trace {
		return out, err
	}
	for _, lr := range layerRuns {
		if lr.name == name {
			continue
		}
		popts := opts
		popts.probe = true
		if !opts.smoke {
			popts.seconds = probeSeconds
		}
		p, err := lr.run(popts, tr)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", lr.name, err)
		}
		out.absorb(p)
		for k, v := range p.layer {
			if _, ok := out.layer[k]; !ok {
				out.layer[k] = v
			}
		}
		for k, v := range p.samples {
			out.samples[lr.name+"_probe."+k] = v
		}
	}
	return out, nil
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (serve_settle, update_cycle)")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	spans := flag.String("spans", "", "span output file for --trace 1 (default .bench_build/spans/<workload>-<seed>.json)")
	flag.Parse()

	_, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in %v, --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, procs: procs}

	host := hostInfo(*workload, opts)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	tr := newTracer()
	out, err := runWorkload(*workload, opts, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if opts.trace {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *workload, *seed))
		}
		if err := tr.write(path, host); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
	}
	samplesLine, _ := json.Marshal(map[string]any{"samples": out.samples})
	fmt.Println(string(samplesLine))
	if len(out.closure) > 0 {
		closureLine, _ := json.Marshal(map[string]any{"closure": out.closure, "tolerance": out.closureTol})
		fmt.Println(string(closureLine))
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}

	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if opts.trace {
		res.Metrics = out.layer
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// hostInfo describes the machine and settings a result was measured on.
func hostInfo(workload string, opts options) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
	}
}

// cpuModel reads the processor name Linux reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB forces a collection and returns the live heap in MB: the state
// the platform (and the benchmark's fixtures) still hold.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMeter reports allocation volume and GC cycles over an interval.
type allocMeter struct{ start runtime.MemStats }

func startAlloc() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.start)
	return a
}

// stop returns MB allocated and GC cycles completed since startAlloc.
func (a *allocMeter) stop() (mb float64, gcs float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return float64(end.TotalAlloc-a.start.TotalAlloc) / (1 << 20), float64(end.NumGC - a.start.NumGC)
}

// deadline is a phase's end time.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
