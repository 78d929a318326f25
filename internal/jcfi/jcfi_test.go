package jcfi

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
	"repro/internal/vm"
)

// run executes src under JCFI. static selects the hybrid (true) or the
// dyn-only variant (false: no rule files).
func run(t *testing.T, src string, cfg Config, static bool,
	extra map[string]string) (*vm.Machine, *Tool, *core.Runtime) {
	t.Helper()
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	for name, s := range extra {
		m, err := asm.Assemble(s)
		if err != nil {
			t.Fatalf("assemble %s: %v", name, err)
		}
		reg[name] = m
	}
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
	// Hijack scenarios run in recover mode: the violation is recorded and
	// execution continues to the corrupt target, which typically faults.
	// Callers inspecting violations tolerate that; benign scenarios assert
	// violation-freedom, which implies a clean run.
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil && len(tool.Report.Violations) == 0 {
		t.Fatalf("run: %v", err)
	}
	return m, tool, rt
}

// benignProg exercises every protected edge type legitimately: direct
// calls, an address-taken callback called indirectly, a cross-module
// callback through qsort, PLT lazy binding (the resolver push+ret), and
// returns everywhere.
const benignProg = `
.module prog
.entry _start
.needs libj.jef
.import qsort
.import rand
.section .text
_start:
    call rand           ; PLT + lazy resolver
    call rand           ; bound GOT path
    la r13, double
    mov r1, 21
    calli r13           ; intra-module indirect call (address-taken)
    mov r12, r0
    la r1, arr
    mov r2, 4
    la r3, cmpfn
    call qsort          ; cross-module stack-spilled callback
    la r6, arr
    ldq r7, [r6+0]
    add r12, r7
    cmp r12, 43         ; 42 + 1
    jne .bad
    mov r1, 0
    mov r0, 1
    syscall
.bad:
    mov r1, 1
    mov r0, 1
    syscall
double:
    mov r0, r1
    add r0, r1
    ret
cmpfn:
    mov r0, r1
    sub r0, r2
    ret
.section .data
arr:
    .quad 4
    .quad 1
    .quad 3
    .quad 2
`

func TestBenignProgramNoViolations(t *testing.T) {
	for _, static := range []bool{true, false} {
		name := "hybrid"
		if !static {
			name = "dyn"
		}
		t.Run(name, func(t *testing.T) {
			m, tool, _ := run(t, benignProg, DefaultConfig, static, nil)
			if len(tool.Report.Violations) != 0 {
				t.Fatalf("false positives: %v", tool.Report.Violations)
			}
			if m.ExitStatus != 0 {
				t.Fatalf("exit = %d (semantics broken)", m.ExitStatus)
			}
		})
	}
}

func TestQsortCallbackNotFlagged(t *testing.T) {
	// The Lockdown false-positive scenario (§6.2.2): the callback
	// function pointer reaches qsort via the stack. JCFI's static
	// analysis finds cmpfn address-taken and allows it.
	_, tool, _ := run(t, benignProg, DefaultConfig, true, nil)
	for _, v := range tool.Report.Violations {
		t.Errorf("JCFI flagged legitimate transfer: %v", v)
	}
}

// hijackProg simulates a control-flow hijack: a function pointer is
// overwritten with a mid-function gadget address and called.
const hijackProg = `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r13, victim
    add r13, 3          ; skew: mid-function gadget, not a function entry
    calli r13           ; forward-edge violation
    mov r1, 0
    mov r0, 1
    syscall
victim:
    mov r0, 7
    mov r0, 8
    ret
`

func TestForwardHijackDetected(t *testing.T) {
	for _, static := range []bool{true, false} {
		_, tool, _ := run(t, hijackProg, DefaultConfig, static, nil)
		found := false
		for _, v := range tool.Report.Violations {
			if v.Kind == "forward-edge" {
				found = true
				if v.Rule != "CFI_CALL" || v.CostCenter != "cfi-check" {
					t.Fatalf("static=%v: rule %q, cost center %q; want CFI_CALL, cfi-check",
						static, v.Rule, v.CostCenter)
				}
			}
		}
		if !found {
			t.Fatalf("static=%v: hijack not detected: %v", static, tool.Report.Violations)
		}
	}
}

func TestReturnHijackDetected(t *testing.T) {
	// A callee overwrites its own return address (classic stack smash).
	prog := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    call victim
back:
    mov r1, 0
    mov r0, 1
    syscall
victim:
    la r6, gadget
    stq [sp+0], r6      ; overwrite the return address
    ret                 ; returns to gadget, not to back
gadget:
    mov r1, 0
    mov r0, 1
    syscall
`
	_, tool, _ := run(t, prog, DefaultConfig, true, nil)
	found := false
	for _, v := range tool.Report.Violations {
		if v.Kind == "return-mismatch" {
			found = true
			if v.Rule != "CFI_RET" || v.CostCenter != "shadow-stack" {
				t.Fatalf("rule %q, cost center %q; want CFI_RET, shadow-stack",
					v.Rule, v.CostCenter)
			}
		}
	}
	if !found {
		t.Fatalf("return hijack not detected: %v", tool.Report.Violations)
	}
}

func TestReturnHijackNotDetectedForwardOnly(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    call victim
back:
    mov r1, 0
    mov r0, 1
    syscall
victim:
    la r6, gadget
    stq [sp+0], r6
    ret
gadget:
    mov r1, 0
    mov r0, 1
    syscall
`
	_, tool, _ := run(t, prog, Config{Forward: true}, true, nil)
	for _, v := range tool.Report.Violations {
		if v.Kind == "return-mismatch" {
			t.Fatalf("forward-only config reported a return mismatch: %v", v)
		}
	}
}

func TestJumpTableDispatchAllowed(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    mov r7, 1
    cmp r7, 3
    jae .def
    la r6, table
    ldxq r8, [r6+r7*8]
    jmpi r8             ; legitimate jump-table dispatch
.case0:
    mov r1, 10
    jmp .out
.case1:
    mov r1, 0
    jmp .out
.case2:
    mov r1, 12
    jmp .out
.def:
    mov r1, 99
.out:
    mov r0, 1
    syscall
.section .rodata
table:
    .quad .case0
    .quad .case1
    .quad .case2
`
	m, tool, _ := run(t, prog, DefaultConfig, true, nil)
	if len(tool.Report.Violations) != 0 {
		t.Fatalf("jump table flagged: %v", tool.Report.Violations)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d", m.ExitStatus)
	}
}

func TestJumpHijackOutsideFunctionDetected(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r6, other
    add r6, 3           ; mid-instruction/mid-function skew
    jmpi r6
    mov r1, 0
    mov r0, 1
    syscall
other:
    mov r1, 1
    mov r1, 2
    mov r0, 1
    syscall
`
	_, tool, _ := run(t, prog, DefaultConfig, true, nil)
	found := false
	for _, v := range tool.Report.Violations {
		if v.Kind == "forward-edge" {
			found = true
		}
	}
	if !found {
		t.Fatalf("jump hijack not detected: %v", tool.Report.Violations)
	}
}

func TestForwardOnlyCheaperThanFull(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    mov r12, 0
.loop:
    call fn
    add r12, 1
    cmp r12, 2000
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
fn:
    ret
`
	mFwd, _, _ := run(t, prog, Config{Forward: true}, true, nil)
	mFull, _, _ := run(t, prog, DefaultConfig, true, nil)
	if mFwd.Cycles >= mFull.Cycles {
		t.Fatalf("forward-only (%d) not cheaper than full (%d)",
			mFwd.Cycles, mFull.Cycles)
	}
	t.Logf("forward/full cycle ratio: %.2f", float64(mFwd.Cycles)/float64(mFull.Cycles))
}

func TestHybridVsDynAIR(t *testing.T) {
	// The hybrid's function-range-restricted jump policy should give an
	// AIR at least as high as the fallback's table-only policy
	// (§6.2.2 footnote 15).
	_, hybrid, _ := run(t, benignProg, DefaultConfig, true, nil)
	_, dyn, _ := run(t, benignProg, DefaultConfig, false, nil)
	hAIR, dAIR := hybrid.DynamicAIR(), dyn.DynamicAIR()
	if hAIR <= 0 || hAIR > 100 || dAIR <= 0 || dAIR > 100 {
		t.Fatalf("AIR out of range: hybrid=%f dyn=%f", hAIR, dAIR)
	}
	if hAIR < dAIR-0.5 {
		t.Errorf("hybrid AIR (%f) below dyn AIR (%f)", hAIR, dAIR)
	}
	if hAIR < 95 {
		t.Errorf("hybrid AIR = %f, expected very high reduction", hAIR)
	}
	t.Logf("DAIR hybrid=%.3f%% dyn=%.3f%%", hAIR, dAIR)
}

func TestDlopenedModuleProtected(t *testing.T) {
	plugin := `
.module plugin.jef
.type shared
.pic
.global attack
.section .text
attack:
    la r6, inner
    add r6, 3
    calli r6            ; hijack inside dlopened code
    ret
inner:
    mov r0, 1
    mov r0, 2
    ret
`
	mainSrc := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r1, pname
    mov r2, 10
    trap 3
    mov r12, r0
    mov r1, r12
    la r2, sname
    mov r3, 6
    trap 4
    calli r0
    mov r1, 0
    mov r0, 1
    syscall
.section .rodata
pname:
    .ascii "plugin.jef"
sname:
    .ascii "attack"
`
	_, tool, rt := run(t, mainSrc, DefaultConfig, true,
		map[string]string{"plugin.jef": plugin})
	found := false
	for _, v := range tool.Report.Violations {
		if v.Kind == "forward-edge" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hijack in dlopened module not detected: %v", tool.Report.Violations)
	}
	if rt.Coverage.Fallback == 0 {
		t.Error("dlopened blocks not classified as fallback")
	}
}

func TestHaltOnViolation(t *testing.T) {
	lj, _ := libj.Module()
	reg := loader.Registry{libj.Name: lj}
	main, _ := asm.Assemble(hijackProg)
	tool := New(Config{Forward: true, Backward: true, HaltOnViolation: true})
	files, err := core.AnalyzeProgram(main, reg, tool)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	proc := loader.NewProcess(m, reg)
	rt := core.NewRuntime(m, proc, tool, files)
	lm, _ := proc.LoadProgram(main)
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err == nil {
		t.Fatal("HaltOnViolation did not abort execution")
	}
}

func TestStaticPassRuleShapes(t *testing.T) {
	main, err := asm.Assemble(benignProg)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(DefaultConfig)
	f, err := core.AnalyzeModule(main, tool)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[rules.ID]int{}
	for _, r := range f.Rules {
		counts[r.ID]++
	}
	if counts[rules.CFICall] < 2 {
		t.Errorf("CFI_CALL rules = %d, want >= 2 (calli + PLT jmpi)", counts[rules.CFICall])
	}
	if counts[rules.CFIRet] < 2 {
		t.Errorf("CFI_RET rules = %d", counts[rules.CFIRet])
	}
	if counts[rules.ShadowPush] < 3 {
		t.Errorf("SHADOW_PUSH rules = %d", counts[rules.ShadowPush])
	}
	if counts[rules.CFITarget] == 0 {
		t.Error("no CFI_TARGET rules")
	}
	if counts[rules.CFIResolverRet] != 1 {
		t.Errorf("CFI_RESOLVER_RET rules = %d, want 1 (plt0)", counts[rules.CFIResolverRet])
	}
}

func TestScanCodePointersFindsImmediates(t *testing.T) {
	main, err := asm.Assemble(`
.module t
.entry _start
.section .text
_start:
    la r1, target       ; address-taken via an instruction immediate
    hlt
target:
    ret
.section .data
dptr:
    .quad target        ; and via a data pointer
`)
	if err != nil {
		t.Fatal(err)
	}
	tgt := main.FindSymbol("target")
	found := false
	for _, p := range ScanCodePointers(main) {
		if p == tgt.Addr {
			found = true
		}
	}
	if !found {
		t.Fatal("sliding-window scan missed the target")
	}
}

// TestIndirectTailCallAllowed: -O2 compiles `return fp(x)` into a jmpi to
// another function's entry; the jump policy's tail-call clause (function
// entries are valid indirect-jump targets) must admit it.
func TestIndirectTailCallAllowed(t *testing.T) {
	src := `
int helper(int x) { return x * 3; }
int (*fp)(int) = helper;
int viaIndirect(int x) { return fp(x + 2); }
int main() { return viaIndirect(3); }`
	mod, err := cc.Compile(src, cc.Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	tool := New(DefaultConfig)
	files, err := core.AnalyzeProgram(mod, reg, tool)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	proc := loader.NewProcess(m, reg)
	rt := core.NewRuntime(m, proc, tool, files)
	lm, err := proc.LoadProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(lm.RuntimeAddr(mod.Entry)); err != nil {
		t.Fatal(err)
	}
	if len(tool.Report.Violations) != 0 {
		t.Fatalf("indirect tail call flagged: %v", tool.Report.Violations)
	}
	if m.ExitStatus != 15 {
		t.Fatalf("exit = %d, want 15", m.ExitStatus)
	}
}

func TestDAIRBreakdown(t *testing.T) {
	_, tool, _ := run(t, benignProg, DefaultConfig, true, nil)
	bd := tool.DAIRBreakdown()
	if bd["ret"] == 0 || bd["call"] == 0 {
		t.Fatalf("breakdown incomplete: %v", bd)
	}
	// Returns use a precise shadow stack: their reduction is essentially
	// total and must dominate the forward kinds.
	// One allowed target out of the (small) test binary's code bytes.
	if bd["ret"] < 99.8 {
		t.Errorf("ret DAIR = %f, want ~100 (shadow stack)", bd["ret"])
	}
	if bd["ret"] < bd["call"] {
		t.Errorf("ret DAIR (%f) below call DAIR (%f)", bd["ret"], bd["call"])
	}
	// The aggregate sits between the per-kind extremes.
	agg := tool.DynamicAIR()
	lo, hi := 100.0, 0.0
	for _, v := range bd {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if agg < lo-1e-9 || agg > hi+1e-9 {
		t.Errorf("aggregate DAIR %f outside per-kind range [%f, %f]", agg, lo, hi)
	}
}

// TestReportCapsForwardEdgeViolations drives more forward-edge violations
// than a report stores: the first diag.MaxStored are kept, every one is
// counted.
func TestReportCapsForwardEdgeViolations(t *testing.T) {
	const n = diag.MaxStored + 100
	prog := fmt.Sprintf(`
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    mov r12, 0
loop:
    la r13, victim
    add r13, 10         ; victim's second instruction: not a call target
    calli r13           ; forward-edge violation, then runs on and returns
    add r12, 1
    cmp r12, %d
    jl loop
    mov r1, 0
    mov r0, 1
    syscall
victim:
    mov r0, 7
    mov r0, 8
    ret
`, n)
	m, tool, _ := run(t, prog, DefaultConfig, true, nil)
	if m.ExitStatus != 0 {
		t.Fatalf("exit %d, want 0", m.ExitStatus)
	}
	for _, v := range tool.Report.Violations {
		if v.Kind != "forward-edge" {
			t.Fatalf("unexpected violation %v", v)
		}
	}
	if tool.Report.Total != n || len(tool.Report.Violations) != diag.MaxStored {
		t.Fatalf("total %d, stored %d; want %d, %d",
			tool.Report.Total, len(tool.Report.Violations), n, diag.MaxStored)
	}
	if got := diag.Count(tool); got != n {
		t.Fatalf("diag.Count = %d, want %d", got, n)
	}
}
