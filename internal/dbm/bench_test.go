package dbm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/spec"
	"repro/internal/vm"
)

// benchProgram is the spec workload the DBM benchmarks run: about 2.2M
// application instructions at scale 1.
const benchProgram = "hmmer"

// BenchmarkDBMRun measures a whole spec program under the dynamic
// modifier, with the null client (pure translation and dispatch), with
// JASan's hybrid instrumentation, and with the comprehensive scheme
// (JASan+JMSan+JTSan+JCFI, the densest checks). Loading and static
// analysis are outside the timer; ns/instr is host time per retired
// instruction, meta instructions included.
func BenchmarkDBMRun(b *testing.B) {
	main, reg, err := spec.ByName(benchProgram).Build(false)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("null", func(b *testing.B) {
		benchDBM(b, main, reg, func(m *vm.Machine, proc *loader.Process) func(uint64) error {
			return dbm.New(m, proc, dbm.NullClient{}).Run
		})
	})
	for _, s := range []struct {
		name    string
		newTool func() core.Tool
	}{
		{"jasan-hybrid", func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) }},
		{"comprehensive", func() core.Tool {
			return core.NewMultiTool(
				jasan.New(jasan.Config{UseLiveness: true}),
				jmsan.New(jmsan.Config{UseLiveness: true}),
				jtsan.New(jtsan.Config{UseLiveness: true}),
				jcfi.New(jcfi.DefaultConfig))
		}},
	} {
		files, err := core.AnalyzeProgram(main, reg, s.newTool())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.name, func(b *testing.B) {
			benchDBM(b, main, reg, func(m *vm.Machine, proc *loader.Process) func(uint64) error {
				return core.NewRuntime(m, proc, s.newTool(), files).Run
			})
		})
	}
}

// benchDBM times b.N runs of main, each on a fresh machine and process
// whose runner newRun sets up before the program is loaded.
func benchDBM(b *testing.B, main *obj.Module, reg loader.Registry,
	newRun func(*vm.Machine, *loader.Process) func(uint64) error) {
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := vm.New()
		m.InstallDefaultServices()
		proc := loader.NewProcess(m, reg)
		run := newRun(m, proc)
		lm, err := proc.LoadProgram(main)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := run(lm.RuntimeAddr(main.Entry)); err != nil {
			b.Fatal(err)
		}
		instrs += m.Instrs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
