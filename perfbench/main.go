// Command perfbench is the repository's benchmark. It stands up
// in-process NASD drives with the shipping nasdd defaults, serves them
// over TCP loopback, drives load through the public client API, checks
// every byte it reads, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics from a traced run).
//
// Usage:
//
//	perfbench --workload stream|smallobj|tenants|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Everything before it is a human-readable report. The command exits
// nonzero when any check fails. See README.md for the workloads and
// the definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds float64 // length of the timed window
	setups  int     // set-ups to time; the last one is measured
	tr      *tracer // nil in untraced runs
	pat     *patterns
	out     io.Writer
}

// named is one metric of the human-readable report.
type named struct {
	name  string
	unit  string
	value float64
	n     int // samples behind a timing; 0 for non-timings
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	setupS            float64
	heapPeakMB        float64
	readP50           float64 // ms
	opsPerS           float64
	report            []named // the workload's own metrics
	// demoted holds the end-to-end metrics too unsteady on a shared
	// 2-vCPU host to gate; traced runs report them from their untraced
	// pass as per-layer metrics.
	demoted map[string]float64
	layers  map[string]float64 // traced runs only
	table   *traceReport       // traced runs only
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"stream":   runStream,
	"smallobj": runSmallObj,
	"tenants":  runTenants,
}

// endToEnd lists the metrics an untraced run reports, with units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_peak_MB", "MB"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "stream, smallobj, tenants, or all")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = []string{"stream", "smallobj", "tenants"}
	}
	ok := true
	for _, n := range names {
		res, err := runOne(n, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs workload name. An untraced run sets up three times (the
// median is setup_s) and measures the last set-up. A traced run makes
// an untraced pass and a traced pass of half the window each: the
// traced pass gives the per-layer metrics, and the difference between
// the two passes is the tracing overhead.
func runOne(name string, seed int64, seconds float64, traced bool) (*jsonResult, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want stream, smallobj, tenants or all)", name)
	}
	e := &env{seed: seed, seconds: seconds, setups: 3, pat: newPatterns(seed), out: os.Stdout}
	fmt.Fprintf(e.out, "== %s  seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n", name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	if !traced {
		o, err := run(e)
		if err != nil {
			return nil, err
		}
		printReport(e.out, o)
		res := &jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
		for i, v := range []float64{o.setupS, o.readP50, o.opsPerS, o.heapPeakMB} {
			res.Metrics[endToEnd[i].name] = jsonMetric{v, endToEnd[i].unit}
		}
		return res, nil
	}
	e.seconds, e.setups = seconds/2, 1
	base, err := run(e)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "-- untraced pass")
	printReport(e.out, base)
	e.tr = newTracer()
	o, err := run(e)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "-- traced pass")
	printReport(e.out, o)
	o.layers["trace.overhead"] = ratio(o.readP50-base.readP50, base.readP50)
	for k, v := range base.demoted {
		o.layers[k] = v
	}
	o.table.writeTable(e.out, name)
	res := &jsonResult{
		Correct:   base.failed == 0 && o.failed == 0,
		Attempted: base.attempted + o.attempted,
		Failed:    base.failed + o.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, l := range perLayer {
		res.Metrics[l.name] = jsonMetric{o.layers[l.name], l.unit}
	}
	fmt.Fprintln(e.out, "per-layer metrics:")
	for _, l := range perLayer {
		fmt.Fprintf(e.out, "  %-34s %14.4f %s\n", l.name, o.layers[l.name], l.unit)
	}
	return res, nil
}

func printReport(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "  %-22s %14.4f %-6s\n", "setup_s", o.setupS, "s")
	fmt.Fprintf(w, "  %-22s %14.6f %-6s\n", "error_ratio", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	fmt.Fprintf(w, "  %-22s %14.4f %-6s\n", "heap_peak_MB", o.heapPeakMB, "MB")
	for _, m := range o.report {
		if m.n > 0 {
			fmt.Fprintf(w, "  %-22s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "  %-22s %14.4f %-6s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", o.attempted, o.failed)
}

// setupRepeated runs setup e.setups times, tearing down all but the
// last, and returns the last with the median set-up time in seconds.
func setupRepeated[T any](e *env, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var durs []float64
	for i := 0; i < e.setups; i++ {
		if i > 0 {
			teardown(last)
			runtime.GC()
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = s
	}
	return last, median(durs), nil
}
