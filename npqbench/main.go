// Command npqbench is the repository benchmark. It drives the npqm
// concurrent engine through three traffic workloads from outside the
// engine, checks every delivered packet, and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run, by
// name and unit. Its last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds it
// from source:
//
//	bash npqbench/run.sh --workload pps64-copy-sync --seed 1 --seconds 10 --trace 0
//
// --out FILE also appends the result, with its host fingerprint, to FILE
// as a JSON line. Result files are combined and compared with
//
//	npqbench merge OUT IN...      (refuses differing fingerprints)
//	npqbench compare BASE CHANGE  (refuses differing hosts)
//
// A run whose output fails a check prints the failures to standard error,
// prints no metrics and exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return cmdCompare(args[1:], stdout, stderr)
		case "merge":
			return cmdMerge(args[1:], stdout, stderr)
		}
	}
	return cmdRun(args, stdout, stderr)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated traffic")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "append the result as a JSON line to this file")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "unknown workload %q; want one of %s\n", *name, strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "--seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	fp := hostFingerprint(".")
	fmt.Fprintf(stdout, "host: %v\n", fp)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%d trace=%d\n  why: %s\n", w.name, *seed, *seconds, *trace, w.why)

	dur := time.Duration(*seconds) * time.Second
	var (
		defs      []metricDef
		vals      map[string]float64
		extra     map[string]float64 // ungated metrics of an untraced run
		attempted uint64
		failed    uint64
	)
	if *trace == 0 {
		var segs []*outcome
		for i := uint64(0); i < segments; i++ {
			o, err := checked(w, *seed*segments+i, dur/segments, nil)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			segs = append(segs, o)
			attempted += o.tally.offered
			failed += o.failed()
		}
		defs, vals = endToEnd, endToEndValues(segs)
		fmt.Fprintf(stdout, "end-to-end metrics (median of %d windows over %d engines; setup_s median of %d set-ups):\n",
			segments*windows, segments, segments*setupReps)
		printMetrics(stdout, defs, vals)
		extra = ungatedValues(segs)
		fmt.Fprintln(stdout, "also reported, not in BENCHMARK.json:")
		printMetrics(stdout, ungated, extra)
	} else {
		// The untraced half gives the baseline for trace.overhead_pct.
		base, err := checked(w, *seed, dur/2, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tr := &tracer{sampleEvery: w.sampleEvery}
		o, err := checked(w, *seed, dur/2, tr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defs, vals = perLayer, perLayerValues(o, base)
		attempted = base.tally.offered + o.tally.offered
		failed = base.failed() + o.failed()
		fmt.Fprintln(stdout, "per-layer metrics (traced run; 0 where the workload bypasses the layer):")
		printMetrics(stdout, defs, vals)
		printLedger(stdout, o, vals["trace.overhead_pct"])
		printDelay(stdout, o)
		path, err := tr.write(*traceDir, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "writing spans:", err)
			return 1
		}
		kept, lost := tr.kept()
		fmt.Fprintf(stdout, "spans: %d written to %s (%d more dropped: buffers full)\n", kept, path, lost)
	}

	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "metric %s is not a number\n", m.name)
			return 1
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if *out != "" {
		r := record{Host: fp, Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
			Correct: true, Metrics: map[string]metric{}}
		for k, m := range res.Metrics {
			r.Metrics[k] = m
		}
		for _, m := range ungated {
			if v, ok := extra[m.name]; ok {
				r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
			}
		}
		if err := appendRecord(*out, r); err != nil {
			fmt.Fprintln(stderr, "writing result:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// checked runs w and turns any failed output check into an error.
func checked(w *workload, seed uint64, dur time.Duration, tr *tracer) (*outcome, error) {
	o, err := run(w, seed, dur, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(o.checks) > 0 {
		return nil, fmt.Errorf("%s: output checks failed:\n%w", w.name, errors.Join(o.checks...))
	}
	return o, nil
}
