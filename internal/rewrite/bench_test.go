package rewrite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/obj"
	"repro/internal/spec"
)

// BenchmarkHybridRun measures a whole spec program (mcf) under JASan's
// hybrid instrumentation through RunHybrid: rewritten code natively, the
// rest through the dynamic modifier, on the machine's one dispatch loop.
// Static analysis and plan capture are outside the timer; applying the
// plans and loading are inside, as RunHybrid does both. ns/instr is host
// time per retired instruction, meta instructions included.
func BenchmarkHybridRun(b *testing.B) {
	main, reg, err := spec.ByName("mcf").Build(false)
	if err != nil {
		b.Fatal(err)
	}
	newJASan := func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) }
	files, plans := captureFor(b, main, reg, newJASan)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := RunHybrid(main, reg, newJASan(), files, plans, Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Machine.Instrs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkApply measures the static applier over every module of one spec
// program that JASan's captured plans instrument: CFG recovery, the
// per-function refusals, trampolines and the relocated `.jrw` copies.
// Static analysis and plan capture are outside the timer.
func BenchmarkApply(b *testing.B) {
	main, reg, err := spec.ByName("hmmer").Build(false)
	if err != nil {
		b.Fatal(err)
	}
	_, plans := captureFor(b, main, reg, func() core.Tool {
		return jasan.New(jasan.Config{UseLiveness: true})
	})
	mods := []*obj.Module{main}
	for _, mod := range reg {
		mods = append(mods, mod)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mod := range mods {
			if plan := plans[mod.Name]; plan != nil {
				if _, err := Apply(mod, plan); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
