package cfg_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/spec"
)

// BenchmarkBuild measures CFG recovery over one spec program's main
// module: the first stage of every static analysis.
func BenchmarkBuild(b *testing.B) {
	main, _, err := spec.ByName("hmmer").Build(false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Build(main); err != nil {
			b.Fatal(err)
		}
	}
}
