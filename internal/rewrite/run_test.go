package rewrite

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/vm"
)

// overflowProg triggers a one-past-the-end heap write inside a coverable
// (ret-terminated) function, so the violation fires from statically
// rewritten code under the static and hybrid backends.
const overflowProg = `
.module prog
.entry _start
.needs libj.jef
.import malloc
.import free
.section .text
poke:
    stxb [r12+r13], r6
    ret
_start:
    mov r1, 24
    call malloc
    mov r12, r0
    mov r6, 1
    mov r13, 24
    call poke
    mov r1, r12
    call free
    mov r1, 7
    mov r0, 1
    syscall
`

// TestBackendParity runs the same program under the dynamic modifier, the
// static rewriter, and the hybrid, and demands identical app-observable
// behaviour and identical sanitizer verdicts — the core claim of the
// shared-plan design.
func TestBackendParity(t *testing.T) {
	main, reg := buildProgram(t, overflowProg)
	files, plans := captureFor(t, main, reg, jasanTool)

	type outcome struct {
		exit  int64
		total uint64
		pc    uint64
	}
	outcomes := map[string]outcome{}

	// Dynamic reference: the ordinary hybrid core runtime.
	{
		tool := jasan.New(jasan.Config{})
		m := vm.New()
		m.InstallDefaultServices()
		m.MaxInstrs = 20_000_000
		proc := loader.NewProcess(m, reg)
		rt := core.NewRuntime(m, proc, tool, files)
		lm, err := proc.LoadProgram(main)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil {
			t.Fatalf("dynamic run: %v", err)
		}
		o := outcome{exit: m.ExitStatus, total: tool.Report.Total}
		if len(tool.Report.Violations) > 0 {
			o.pc = tool.Report.Violations[0].PC
		}
		outcomes["dynamic"] = o
	}

	{
		tool := jasan.New(jasan.Config{})
		res, err := RunStatic(main, reg, tool, files, plans, Options{MaxInstrs: 20_000_000})
		if err != nil {
			t.Fatalf("static run: %v", err)
		}
		o := outcome{exit: res.Machine.ExitStatus, total: tool.Report.Total}
		if len(tool.Report.Violations) > 0 {
			o.pc = tool.Report.Violations[0].PC
		}
		outcomes["static"] = o
		if len(res.Rewritten) == 0 {
			t.Fatal("static run rewrote nothing")
		}
	}

	{
		tool := jasan.New(jasan.Config{})
		res, err := RunHybrid(main, reg, tool, files, plans, Options{MaxInstrs: 20_000_000})
		if err != nil {
			t.Fatalf("hybrid run: %v", err)
		}
		o := outcome{exit: res.Machine.ExitStatus, total: tool.Report.Total}
		if len(tool.Report.Violations) > 0 {
			o.pc = tool.Report.Violations[0].PC
		}
		outcomes["hybrid"] = o
		cov := res.Runtime.Coverage
		if cov.StaticNoOp+cov.StaticInstrumented+cov.Fallback == 0 {
			t.Fatal("hybrid never fell over to the dynamic modifier (the exit path is uncovered, so it must)")
		}
	}

	ref := outcomes["dynamic"]
	if ref.exit != 7 {
		t.Fatalf("dynamic exit = %d, want 7", ref.exit)
	}
	if ref.total == 0 {
		t.Fatal("dynamic backend missed the overflow")
	}
	for _, backend := range []string{"static", "hybrid"} {
		o := outcomes[backend]
		if o != ref {
			t.Fatalf("%s diverges from dynamic: %+v vs %+v", backend, o, ref)
		}
	}
}

// refusedOverflowProg overflows the heap chunk from `_start` itself, which
// ends in the exit syscall and so is refused by the applier: the violation
// fires from code that only the dynamic modifier instruments.
const refusedOverflowProg = `
.module prog
.entry _start
.needs libj.jef
.import malloc
.import free
.section .text
_start:
    mov r1, 24
    call malloc
    mov r12, r0
    mov r6, 1
    mov r13, 24
    stxb [r12+r13], r6
    mov r1, r12
    call free
    mov r1, 7
    mov r0, 1
    syscall
`

// TestHybridInstrumentsRefusedCode checks the hybrid's failover: an
// overflow inside a refused function is caught at the dynamic backend's PC
// by the hybrid, which instruments that code through the runtime's own
// classifier, and missed by the static backend, which runs it as original
// uninstrumented code.
func TestHybridInstrumentsRefusedCode(t *testing.T) {
	main, reg := buildProgram(t, refusedOverflowProg)
	files, plans := captureFor(t, main, reg, jasanTool)
	opts := Options{MaxInstrs: 20_000_000}

	dyn := jasan.New(jasan.Config{})
	s, err := core.Load(main, reg, dyn, files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("dynamic run: %v", err)
	}
	if len(dyn.Report.Violations) == 0 {
		t.Fatal("dynamic backend missed the overflow")
	}

	hyb := jasan.New(jasan.Config{})
	res, err := RunHybrid(main, reg, hyb, files, plans, opts)
	if err != nil {
		t.Fatalf("hybrid run: %v", err)
	}
	refused := false
	for _, r := range res.Rewritten[main.Name].Manifest.Refused {
		refused = refused || (r.Fn == "_start" && r.Reason == "falls through past the last block")
	}
	if !refused {
		t.Fatalf("_start was not refused: %+v", res.Rewritten[main.Name].Manifest.Refused)
	}
	if hyb.Report.Total != dyn.Report.Total || len(hyb.Report.Violations) == 0 ||
		hyb.Report.Violations[0].PC != dyn.Report.Violations[0].PC {
		t.Fatalf("hybrid reports %d violations %+v, dynamic %d at pc %#x",
			hyb.Report.Total, hyb.Report.Violations, dyn.Report.Total, dyn.Report.Violations[0].PC)
	}
	// Covered blocks run natively: only the blocks the modifier built are
	// classified or counted, and each of its dispatches is a hit or a build.
	ds, cached := res.Runtime.DBM.Stats, res.Machine.Blocks().Len()
	if ds.BlocksBuilt == 0 || uint64(cached) <= ds.BlocksBuilt {
		t.Fatalf("hybrid built %d of its %d cached blocks, want some but not all",
			ds.BlocksBuilt, cached)
	}
	if ds.BlockExecs != ds.CacheHits+ds.BlocksBuilt ||
		res.Runtime.Coverage.Total() != ds.BlocksBuilt {
		t.Fatalf("hybrid DBM stats %+v, %d blocks classified", ds, res.Runtime.Coverage.Total())
	}

	st := jasan.New(jasan.Config{})
	if _, err := RunStatic(main, reg, st, files, plans, opts); err != nil {
		t.Fatalf("static run: %v", err)
	}
	if st.Report.Total != 0 {
		t.Fatalf("static backend reported %d violations from uninstrumented code", st.Report.Total)
	}
}

// TestStaticRefusesStalePlacement feeds both rewriting runners plans whose
// placement assumption no longer holds; they must refuse, not run with
// wrong addresses.
func TestStaticRefusesStalePlacement(t *testing.T) {
	main, reg := buildProgram(t, overflowProg)
	files, plans := captureFor(t, main, reg, jasanTool)
	for _, p := range plans {
		p.ModuleID++ // placement drift
	}
	for name, run := range map[string]func(*obj.Module, loader.Registry, core.Tool,
		map[string]*rules.File, map[string]*Plan, Options) (*RunResult, error){
		"static": RunStatic, "hybrid": RunHybrid,
	} {
		tool := jasan.New(jasan.Config{})
		if _, err := run(main, reg, tool, files, plans, Options{MaxInstrs: 1_000_000}); err == nil {
			t.Errorf("%s: stale placement accepted", name)
		}
	}
}
