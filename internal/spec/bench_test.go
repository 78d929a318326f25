package spec

import "testing"

// BenchmarkSpecBuild measures building every spec program: compiling its
// main module and extra modules and assembling its assembly modules, the
// stage the benchmark's analyze workload times as cc.build. One operation
// builds all of them.
func BenchmarkSpecBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range all {
			if _, _, err := w.Build(false); err != nil {
				b.Fatal(err)
			}
		}
	}
}
