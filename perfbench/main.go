// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time, checks the program's outputs, and
// prints its metrics by name and unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.0123, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's own tracing off. With -trace 1 the first round runs
// untraced and the rest traced, and the metrics are the per-layer ones;
// the spans are written to a file under -out. Every workload reports
// every metric of both lists (endToEnd and perLayer); what else it
// measures is printed above the result line.
//
// The servers run in this process on loopback TCP, configured as
// cmd/vmserve and cmd/vmgate configure them by default, and the load
// comes from this process too. README.md in this directory lists the
// workloads, metrics and the layer each per-layer metric belongs to.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload gate-diurnal --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

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

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: gate-diurnal, dense-host, durable-churn or paper-offline")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 25, "how long to measure")
		trace   = fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and journals")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload %s, -trace 0 or 1 and -seconds >= 0\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, tmp: filepath.Join(*out, "tmp")}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, rep, err := execute(*name, def, cfg)
	printReport(stdout, *name, cfg, rep)
	if err == nil && cfg.trace {
		path := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = writeSpans(path, rep.spans)
		}
		if err == nil {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans), path)
		}
	}
	if err != nil {
		res.Correct = false
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// execute runs the workload and assembles the result; the error is set
// when a check failed or a metric of the result line could not be
// measured.
func execute(name string, def workloadDef, cfg runConfig) (result, *report, error) {
	rep := &report{values: map[string]float64{}}
	res := result{Metrics: map[string]metricValue{}}
	err := def.run(cfg, rep)
	res.Attempted, res.Failed = rep.attempted, rep.failed
	if err != nil {
		return res, rep, err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := rep.values[m]
		if !ok {
			if cfg.smoke {
				continue
			}
			return res, rep, fmt.Errorf("workload %s did not measure %s", name, m)
		}
		res.Metrics[m] = metricValue{Value: v, Unit: units[m]}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	if !res.Correct {
		return res, rep, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, rep, nil
}

// liveHeap returns the live heap as of the most recent collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func printReport(w io.Writer, name string, cfg runConfig, rep *report) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %gs, %s\n", name, cfg.seed, cfg.seconds, mode)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	if len(rep.rows) > 0 {
		fmt.Fprintf(w, "  %-12s %8s %10s %14s %8s\n", "layer", "calls", "p50 ms", "tail ms", "wall %")
		for _, r := range rep.rows {
			tail := "-"
			if r.tailP > 0 {
				tail = fmt.Sprintf("p%g %.4g", r.tailP, r.tail)
			}
			fmt.Fprintf(w, "  %-12s %8d %10.4g %14s %8.2f\n", r.layer, r.n, r.p50, tail, 100*r.share)
		}
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, rep.values[n], units[n])
	}
}
