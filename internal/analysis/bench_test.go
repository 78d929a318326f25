package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/spec"
)

var liveSink *analysis.Liveness

// BenchmarkLiveness measures interprocedural register and flag liveness
// over one spec program's main module, as the static stage computes it:
// the hottest reader of the opcode table's register and flag facts. The
// CFG is built outside the timer.
func BenchmarkLiveness(b *testing.B) {
	main, _, err := spec.ByName("hmmer").Build(false)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Build(main)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liveSink = analysis.ComputeLiveness(g, true)
	}
}
