package cc_test

import (
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/spec"
)

// BenchmarkCompile measures compiling one spec program's main module at
// -O2, assembly included: the per-program compile cost of every study
// that builds its workloads.
func BenchmarkCompile(b *testing.B) {
	w := spec.ByName("hmmer")
	src := strings.ReplaceAll(w.Src, "SCALE_N", "1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(src, cc.Options{Module: w.Name, O2: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileLarge measures the largest compilation unit among the
// spec workloads, cactusADM's dlopen'd solver module, with the options
// spec.Build compiles extra modules with.
func BenchmarkCompileLarge(b *testing.B) {
	w := spec.ByName("cactusADM")
	name := "cactus_solver.jef"
	src := strings.ReplaceAll(w.ExtraC[name], "SCALE_N", "1")
	opts := cc.Options{Module: name, Shared: true, O2: true, NoRuntime: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}
