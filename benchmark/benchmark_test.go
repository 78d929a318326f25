package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// tinyConfig runs each workload at a handful of operations, one set-up and
// the shortest measuring window.
func tinyConfig(trace bool) config {
	return config{seed: 1, seconds: 0.01, trace: trace, setups: 1, tiny: true, workers: 2}
}

// benchmarkJSON is the subset of BENCHMARK.json the test compares with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size:
// no operation may fail, and the printed metrics must be exactly the ones
// BENCHMARK.json lists, with the same units.
func TestWorkloadsTiny(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(trace)
			var tr *tracer
			want := bj.EndToEnd
			if trace {
				tr = newTracer()
				want = bj.PerLayer
			}
			rep, err := run(def, cfg, tr)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			if rep.failed > 0 {
				t.Errorf("%s trace=%v: %d failed: %v", def.name, trace, rep.failed, rep.failures)
			}
			line := rep.result(def, cfg).line()
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d",
					def.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), BENCHMARK.json unit %s",
						def.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestDefinitionsMatchBenchmarkJSON compares the metric tables, directions
// included.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, c := range []struct {
		name string
		defs []metricDef
		json []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Fatalf("%s: benchmark has %d metrics, BENCHMARK.json %d", c.name, len(c.defs), len(c.json))
		}
		for i, d := range c.defs {
			j := c.json[i]
			if d.name != j.Name || d.unit != j.Unit || d.better != j.Better {
				t.Errorf("%s %d: benchmark %+v, BENCHMARK.json %+v", c.name, i, d, j)
			}
		}
	}
}

// TestInputsFromSeed checks that each workload's generated inputs are a
// function of the seed alone.
func TestInputsFromSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"dynamic": func(s int64) any { return dynamicCells(s, 28) },
		"rewrite": func(s int64) any { return rewriteCells(s, 28) },
		"analyze": func(s int64) any { return analyzeOps(s, 4000) },
		"serve":   func(s int64) any { return serveMix(s, 8000) },
	}
	enc := func(v any) []byte { return []byte(fmt.Sprintf("%+v", v)) }
	for name, gen := range gens {
		a, b, c := enc(gen(7)), enc(gen(7)), enc(gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

// TestTamperedNativeOutputFails corrupts one program's native reference:
// every instrumented run of it must then count as failed.
func TestTamperedNativeOutputFails(t *testing.T) {
	def := &workloadDef{name: "dynamic", setup: func(cfg config) (workload, error) {
		w, err := setupDynamic(cfg)
		if err != nil {
			return nil, err
		}
		p := w.(*dynamic).progs[0]
		p.out = append(append([]byte(nil), p.out...), "tampered"...)
		return w, nil
	}}
	rep, err := run(def, tinyConfig(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("fail_ratio is 0 with a tampered native output (%d attempted)", rep.attempted)
	}
}
