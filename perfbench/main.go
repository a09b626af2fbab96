// Command perfbench is the repository's benchmark: it runs one workload
// against the RHEEM engine for a fixed time, checks every output, and
// prints the workload's metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload sql-analytics --seed 1 --seconds 30 --trace 0
//
// Workloads are sql-analytics, serve-small-jobs and ml-iterative (see
// README.md). --trace 0 measures the end-to-end metrics through the
// user paths; --trace 1 times every layer from the benchmark's own
// calls and prints the per-layer metrics, writing its span dump under
// --trace-dir. The exit code is non-zero if any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// duration is the measured phase's length.
func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what one workload run reports.
type outcome struct {
	attempted int
	failed    int
	// failures holds a description of each failed op, for stderr.
	failures []string
	metrics  map[string]float64
	spans    *spanLog
}

// fail records one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"sql-analytics":    runSQLAnalytics,
	"serve-small-jobs": runServeSmallJobs,
	"ml-iterative":     runMLIterative,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sql-analytics, serve-small-jobs or ml-iterative")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/perfbench-trace", "directory the traced run writes its span dump to")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", cfg.workload, traceFlag, cfg.seconds)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}
	if cfg.trace && out.spans != nil {
		path, err := out.spans.dump(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing span dump:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: span dump written to", path)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	rep, err := buildReport(out, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// buildReport selects the named metrics from the outcome. A metric the
// workload did not produce, or one that is not a finite number, is an
// error: the benchmark's metric set is fixed.
func buildReport(out *outcome, names []metricDef) (*report, error) {
	rep := &report{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(names)),
	}
	var missing []string
	for _, m := range names {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not produced: %v", missing)
	}
	return rep, nil
}

// memSample is the Go runtime's allocation and GC counters at one point.
type memSample struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	pauseNS             uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeMetrics adds the per-op Go runtime costs between two samples.
func runtimeMetrics(m map[string]float64, before, after memSample, ops int) {
	n := float64(ops)
	m["allocs_per_op"] = float64(after.mallocs-before.mallocs) / n
	m["runtime.alloc_bytes_per_op"] = float64(after.totalAlloc-before.totalAlloc) / n
	m["runtime.gc_cycles_per_op"] = float64(after.numGC-before.numGC) / n
	m["runtime.gc_pause_us_per_op"] = float64(after.pauseNS-before.pauseNS) / 1e3 / n
}

// medianSetup runs setup at least three times and until a second has
// passed (at most 25 times), and returns the last result with the median
// duration in seconds. Earlier results are released before the next
// attempt so set-ups do not pile up in memory.
func medianSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var times []float64
	begin := time.Now()
	for len(times) < 3 || (time.Since(begin) < time.Second && len(times) < 25) {
		if len(times) > 0 {
			release(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
