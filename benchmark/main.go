// Command benchmark measures the Janitizer tools on four workloads: the
// host time users wait on (set-up, throughput, latency, memory) and, on the
// execution workloads, the simulated overhead of the sanitized programs.
// It drives each layer only through its public functions and checks every
// output against a reference from another code path.
//
//	benchmark -workload dynamic -seed 1 -seconds 24 -trace 0
//
// prints the end-to-end metrics of one workload, with -trace 1 the
// per-layer metrics of a separate traced run. Without -workload it runs all
// four, each in its own child process. The last line of standard output is
// the result as one JSON object; the exit status is non-zero when any
// operation failed. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

var workloads = []*workloadDef{
	{
		name:  "dynamic",
		noun:  "cells",
		setup: setupDynamic,
	},
	{
		name:  "rewrite",
		noun:  "cells",
		setup: setupRewrite,
	},
	{
		name:  "analyze",
		noun:  "analyses",
		setup: setupAnalyze,
	},
	{
		name:  "serve",
		noun:  "requests",
		setup: setupServe,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dynamic, rewrite, analyze or serve (empty: all four, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measuring time per workload, after set-up and warm-up")
	trace := fs.Int("trace", 0, "1: run traced and report the per-layer metrics instead of the end-to-end ones")
	outPath := fs.String("o", "", "also write the result as JSON to this file")
	spansPath := fs.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *name == "" {
		child := []string{"-seed", strconv.FormatInt(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace)}
		return runAll(child, *outPath, stdout, stderr)
	}
	def := workloadByName(*name)
	if def == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:         *seed,
		seconds:      *seconds,
		trace:        *trace == 1,
		setups:       3,
		setupSeconds: 2,
		workers:      min(2, runtime.NumCPU()),
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, err := run(def, cfg, tr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if tr != nil && *spansPath != "" {
		if err := tr.writeSpans(*spansPath, def.name, cfg.seed); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	res := rep.result(def, cfg)
	printReport(stdout, def, cfg, rep)
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// result is the JSON form of a report. Its last-line form keeps only
// correct, attempted, failed and the metric values with their units.
type result struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	Rounds    int                   `json:"rounds"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	Metrics   map[string]metricJSON `json:"metrics"`
	// SimSlowdown is each scheme's geomean simulated slowdown, on the
	// workloads that execute sanitized programs.
	SimSlowdown map[string]float64 `json:"sim_slowdown,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

type metricJSON struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *report) result(def *workloadDef, cfg config) *result {
	res := &result{
		Workload: def.name, Seed: cfg.seed, Trace: cfg.trace, Rounds: r.rounds,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Failures: r.failures, Metrics: map[string]metricJSON{},
		SimSlowdown: r.slowdowns, Notes: r.extra,
	}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.def.name] = metricJSON{Value: v, Unit: m.def.unit, Better: m.def.better}
	}
	return res
}

func (r *result) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricJSON{}}
	for k, m := range r.Metrics {
		l.Metrics[k] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	return l
}

func printReport(w io.Writer, def *workloadDef, cfg config, r *report) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  rounds %d (+1 warm-up)  %s attempted %d  failed %d\n",
		def.name, cfg.seed, mode, r.rounds, def.noun, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14s %-6s %s\n", m.def.name,
			strconv.FormatFloat(m.value, 'f', 4, 64), m.def.unit, m.def.better)
	}
	fmt.Fprintf(w, "  %-34s %14s %-6s %s\n", "fail_ratio",
		strconv.FormatFloat(float64(r.failed)/float64(max(r.attempted, 1)), 'f', 4, 64), "frac", "lower")
	for _, e := range r.extra {
		fmt.Fprintf(w, "  %s\n", e)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if r.failed > len(r.failures) {
		fmt.Fprintf(w, "FAIL ... and %d more\n", r.failed-len(r.failures))
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in its own child process with the given
// flags, so each one's peak memory is its own, and prints the children's
// output as it comes. -o collects each child's last line.
func runAll(childArgs []string, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	all := map[string]json.RawMessage{}
	status := 0
	for _, def := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", def.name}, childArgs...)...)
		cmd.Stderr = stderr
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			status = 1
		}
		if last := lastLine(buf.Bytes()); json.Valid(last) {
			all[def.name] = last
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, all); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return status
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
