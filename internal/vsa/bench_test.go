package vsa_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/spec"
	"repro/internal/vsa"
)

// analyzeSink keeps the benchmarked result live.
var analyzeSink *vsa.Result

// BenchmarkAnalyze measures the value-set analysis fixpoint over one spec
// program's main module. CFG recovery and canary detection, its inputs,
// are outside the timer.
func BenchmarkAnalyze(b *testing.B) {
	main, _, err := spec.ByName("hmmer").Build(false)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Build(main)
	if err != nil {
		b.Fatal(err)
	}
	canaries := analysis.FindCanaries(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeSink = vsa.Analyze(main, g, canaries)
	}
}
