package jtsan

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
	"repro/internal/vm"
)

// runWith compiles src, optionally statically analyzes it with JTSan, and
// executes it under the runtime. Returns machine, tool and runtime.
func runWith(t *testing.T, src string, cfg Config, static bool) (*vm.Machine, *Tool, *core.Runtime) {
	t.Helper()
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	main, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	tool := New(cfg)
	files := map[string]*rules.File{}
	if static {
		files, err = core.AnalyzeProgram(main, reg, tool)
		if err != nil {
			t.Fatalf("static analysis: %v", err)
		}
	}
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
		t.Fatalf("run: %v", err)
	}
	return m, tool, rt
}

const uafProg = `
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
    mov r6, 7
    stq [r12], r6
    mov r1, r12
    call free
    ldq r7, [r12]     ; use after free: the chunk is quarantined
    mov r1, 0
    mov r0, 1
    syscall
`

func TestDetectsUseAfterFree(t *testing.T) {
	for _, mode := range []string{"hybrid", "elide", "dyn"} {
		t.Run(mode, func(t *testing.T) {
			var tool *Tool
			switch mode {
			case "hybrid":
				_, tool, _ = runWith(t, uafProg, Config{UseLiveness: true}, true)
			case "elide":
				_, tool, _ = runWith(t, uafProg, Config{UseLiveness: true, Elide: true}, true)
			default:
				_, tool, _ = runWith(t, uafProg, Config{}, false)
			}
			if tool.Report.Total == 0 {
				t.Fatal("use-after-free not detected")
			}
			v := tool.Report.Violations[0]
			if v.Kind != "use-after-free" || v.Width != 8 {
				t.Fatalf("violation = %+v; want an 8-byte use-after-free", v)
			}
			if v.Object == 0 || v.Gen != 1 {
				t.Fatalf("report lacks chunk attribution: %+v", v)
			}
		})
	}
}

const doubleFreeProg = `
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
    mov r6, 7
    stq [r12], r6
    mov r1, r12
    call free
    mov r1, r12
    call free         ; repeat free: generation mismatch at free time
    mov r1, 0
    mov r0, 1
    syscall
`

func TestDetectsDoubleFree(t *testing.T) {
	for _, mode := range []string{"hybrid", "elide", "dyn"} {
		t.Run(mode, func(t *testing.T) {
			var tool *Tool
			var m *vm.Machine
			switch mode {
			case "hybrid":
				m, tool, _ = runWith(t, doubleFreeProg, Config{UseLiveness: true}, true)
			case "elide":
				m, tool, _ = runWith(t, doubleFreeProg, Config{UseLiveness: true, Elide: true}, true)
			default:
				m, tool, _ = runWith(t, doubleFreeProg, Config{}, false)
			}
			if tool.Report.Total != 1 {
				t.Fatalf("violations = %d, want exactly 1: %v",
					tool.Report.Total, tool.Report.Violations)
			}
			v := tool.Report.Violations[0]
			if v.Kind != "double-free" || v.Width != 0 {
				t.Fatalf("violation = %+v; want a free-time double-free", v)
			}
			if v.Rule != "QUAR_TICK" || v.CostCenter != "quarantine" {
				t.Fatalf("rule %q, cost center %q; want QUAR_TICK, quarantine",
					v.Rule, v.CostCenter)
			}
			// The refused repeat free never reaches the underlying
			// allocator, so the run survives to a clean exit.
			if m.ExitStatus != 0 {
				t.Fatalf("exit = %d, want 0", m.ExitStatus)
			}
		})
	}
}

const invalidFreeProg = `
.module prog
.entry _start
.needs libj.jef
.import free
.section .text
_start:
    la r1, g
    call free         ; never-issued pointer
    mov r1, 0
    mov r0, 1
    syscall
.section .data
g:
    .quad 9
`

func TestDetectsInvalidFree(t *testing.T) {
	_, tool, _ := runWith(t, invalidFreeProg, Config{UseLiveness: true}, true)
	if tool.Report.Total != 1 || tool.Report.Violations[0].Kind != "invalid-free" {
		t.Fatalf("violations = %v; want one invalid-free", tool.Report.Violations)
	}
	if v := tool.Report.Violations[0]; v.Rule != "QUAR_TICK" || v.CostCenter != "quarantine" {
		t.Fatalf("rule %q, cost center %q; want QUAR_TICK, quarantine", v.Rule, v.CostCenter)
	}
}

const cleanProg = `
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
    mov r6, 7
    stq [r12], r6
    ldq r7, [r12]     ; live access before the free
    mov r1, r12
    call free
    mov r1, 32        ; a second allocation after the free: quarantine
    call malloc       ; parking means it cannot alias the freed chunk
    mov r13, r0
    stq [r13], r7
    ldq r6, [r13+16]
    mov r1, r13
    call free
    mov r1, 0
    mov r0, 1
    syscall
`

func TestNoFalsePositiveOnCleanProgram(t *testing.T) {
	for _, mode := range []string{"hybrid", "elide", "dyn"} {
		t.Run(mode, func(t *testing.T) {
			var tool *Tool
			switch mode {
			case "hybrid":
				_, tool, _ = runWith(t, cleanProg, Config{UseLiveness: true}, true)
			case "elide":
				_, tool, _ = runWith(t, cleanProg, Config{UseLiveness: true, Elide: true}, true)
			default:
				_, tool, _ = runWith(t, cleanProg, Config{}, false)
			}
			if tool.Report.Total != 0 {
				t.Fatalf("false positive: %v", tool.Report.Violations)
			}
		})
	}
}

func TestConfigKeyDistinguishesVariants(t *testing.T) {
	a := New(Config{UseLiveness: true})
	b := New(Config{UseLiveness: true, Elide: true})
	if a.ConfigKey() == b.ConfigKey() {
		t.Fatal("elide variant shares a cache key with the base variant")
	}
	if a.Name() != "jtsan" {
		t.Fatalf("unexpected tool name %q", a.Name())
	}
}

// TestModuleUnloadBaseReuse is footnote 2's scenario under JTSan: module A
// is dlopened, used and dlclosed; module B loads AT THE SAME BASE. JTSan's
// temporal state is keyed on heap chunk bases, not module bases, and the
// per-module rule tables drop A's generation-check hints in O(1) — so B's
// accesses at the recycled addresses classify against B's fresh table with
// zero stale reports and zero fallback blocks.
func TestModuleUnloadBaseReuse(t *testing.T) {
	plugA := `
.module a.jef
.type shared
.pic
.global fa
.section .text
fa:
    la r6, aslot
    ldq r7, [r6+0]
    add r7, 1
    stq [r6+0], r7
    mov r0, r7
    ret
.section .data
aslot:
    .quad 100
`
	plugB := `
.module b.jef
.type shared
.pic
.global fb
.section .text
fb:
    la r6, bslot
    ldq r7, [r6+0]
    add r7, 2
    stq [r6+0], r7
    mov r0, r7
    ret
.section .data
bslot:
    .quad 200
`
	mainSrc := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    ; dlopen a, call fa, dlclose a
    la r1, an
    mov r2, 5
    trap 3
    mov r12, r0
    mov r1, r12
    la r2, fan
    mov r3, 2
    trap 4
    calli r0
    mov r13, r0         ; 101
    mov r1, r12
    trap 8
    ; dlopen b (reuses a's base), call fb
    la r1, bn
    mov r2, 5
    trap 3
    mov r12, r0
    mov r1, r12
    la r2, fbn
    mov r3, 2
    trap 4
    calli r0            ; 202
    add r0, r13
    mov r1, r0
    mov r0, 1
    syscall
.section .rodata
an:
    .ascii "a.jef"
bn:
    .ascii "b.jef"
fan:
    .ascii "fa"
fbn:
    .ascii "fb"
`
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	a, err := asm.Assemble(plugA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := asm.Assemble(plugB)
	if err != nil {
		t.Fatal(err)
	}
	main, err := asm.Assemble(mainSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj, "a.jef": a, "b.jef": b}

	tool := New(Config{UseLiveness: true})
	files, err := core.AnalyzeProgram(main, reg, tool)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := core.AnalyzeModule(a, tool)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := core.AnalyzeModule(b, tool)
	if err != nil {
		t.Fatal(err)
	}
	files["a.jef"] = fa
	files["b.jef"] = fb

	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	proc := loader.NewProcess(m, reg)
	rt := core.NewRuntime(m, proc, tool, files)
	lm, err := proc.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 101+202 {
		t.Fatalf("exit = %d, want 303", m.ExitStatus)
	}
	// The global stores/loads at the recycled base are temporally live in
	// both incarnations: no stale generation-check state may survive the
	// unload.
	if tool.Report.Total != 0 {
		t.Fatalf("stale temporal reports across module reload: %v",
			tool.Report.Violations)
	}
	if rt.Coverage.Fallback != 0 {
		t.Errorf("fallback blocks = %d; stale-hint handling broken",
			rt.Coverage.Fallback)
	}
}

// TestParallelIndependentMachines runs detection and clean cases on
// concurrent machines; under -race this checks the runtime keeps all its
// temporal state per-machine with no shared mutable globals.
func TestParallelIndependentMachines(t *testing.T) {
	for i := 0; i < 4; i++ {
		i := i
		t.Run(fmt.Sprintf("worker%d", i), func(t *testing.T) {
			t.Parallel()
			src, wantViolations := uafProg, true
			if i%2 == 1 {
				src, wantViolations = cleanProg, false
			}
			_, tool, _ := runWith(t, src, Config{UseLiveness: true}, true)
			if got := tool.Report.Total > 0; got != wantViolations {
				t.Fatalf("violations present = %v, want %v (report: %v)",
					got, wantViolations, tool.Report.Violations)
			}
		})
	}
}
