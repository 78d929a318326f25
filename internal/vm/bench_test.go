package vm_test

import (
	"testing"

	"repro/internal/loader"
	"repro/internal/spec"
	"repro/internal/vm"
)

// benchProgram is the spec workload the executor benchmarks run: about
// 2.2M instructions at scale 1, with loops, calls and library code.
const benchProgram = "hmmer"

// BenchmarkNativeRun measures the executor running a whole spec program
// natively. Loading is outside the timer; ns/instr is host time per
// retired instruction.
func BenchmarkNativeRun(b *testing.B) {
	main, reg, err := spec.ByName(benchProgram).Build(false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := vm.New()
		m.InstallDefaultServices()
		proc := loader.NewProcess(m, reg)
		lm, err := proc.LoadProgram(main)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Run(lm.RuntimeAddr(main.Entry)); err != nil {
			b.Fatal(err)
		}
		instrs += m.Instrs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
