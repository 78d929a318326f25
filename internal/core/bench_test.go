package core_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/libj"
	"repro/internal/loader"
)

// comprehensive is the four-tool composition janitizerd serves as
// "comprehensive": four shadow regions and the CFI tables in one machine.
func comprehensive() core.Tool {
	return core.NewMultiTool(
		jasan.New(jasan.Config{UseLiveness: true}),
		jmsan.New(jmsan.Config{UseLiveness: true}),
		jtsan.New(jtsan.Config{UseLiveness: true}),
		jcfi.New(jcfi.DefaultConfig),
	)
}

// BenchmarkSessionRun measures the per-run fixed cost a short request pays:
// core.Load plus Run of a small heap-using program under the comprehensive
// composition. Analysis happens once, outside the timer; B/op and allocs/op
// are dominated by the fresh machine, its address space and the tools'
// run-time state rather than by the few hundred instructions retired.
func BenchmarkSessionRun(b *testing.B) {
	main, err := cc.Compile(heapLoop, cc.Options{Module: "prog", O2: true})
	if err != nil {
		b.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		b.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	files, err := core.AnalyzeProgram(main, reg, comprehensive())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Load(main, reg, comprehensive(), files, core.Options{MaxInstrs: 10_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
