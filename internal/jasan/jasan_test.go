package jasan

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/vm"
)

// runHybrid compiles src, statically analyzes it with JASan, and executes it
// under the hybrid runtime. Returns machine, tool and runtime.
func runHybrid(t *testing.T, src string, cfg Config) (*vm.Machine, *Tool, *core.Runtime) {
	t.Helper()
	return runWith(t, src, cfg, true)
}

// runDynOnly executes with no rewrite rules at all: the JASan-dyn variant.
func runDynOnly(t *testing.T, src string, cfg Config) (*vm.Machine, *Tool, *core.Runtime) {
	t.Helper()
	return runWith(t, src, cfg, false)
}

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

const heapOverflowProg = `
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
    ; in-bounds writes: 0..23
    mov r13, 0
.ok:
    stxb [r12+r13], r13
    add r13, 1
    cmp r13, 24
    jl .ok
    ; one out-of-bounds write at offset 24 (right redzone)
    mov r6, 99
    stb [r12+24], r6
    mov r1, r12
    call free
    mov r1, 0
    mov r0, 1
    syscall
`

func TestDetectsHeapOverflow(t *testing.T) {
	for _, mode := range []string{"hybrid", "dyn"} {
		t.Run(mode, func(t *testing.T) {
			var tool *Tool
			if mode == "hybrid" {
				_, tool, _ = runHybrid(t, heapOverflowProg, Config{UseLiveness: true, UseSCEV: true})
			} else {
				_, tool, _ = runDynOnly(t, heapOverflowProg, Config{})
			}
			if tool.Report.Total == 0 {
				t.Fatal("overflow not detected")
			}
			found := false
			for _, v := range tool.Report.Violations {
				if v.Kind == "heap-buffer-overflow" {
					found = true
				}
			}
			if !found {
				t.Fatalf("no heap-buffer-overflow in %v", tool.Report.Violations)
			}
		})
	}
}

func TestNoFalsePositivesInBoundsProgram(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.import malloc
.import free
.import memset
.import memcpy
.section .text
_start:
    mov r1, 64
    call malloc
    mov r12, r0
    mov r1, r12
    mov r2, 7
    mov r3, 64
    call memset
    mov r1, 64
    call malloc
    mov r13, r0
    mov r1, r13
    mov r2, r12
    mov r3, 64
    call memcpy
    mov r1, r12
    call free
    mov r1, r13
    call free
    mov r1, 0
    mov r0, 1
    syscall
`
	for _, cfg := range []Config{
		{}, {UseLiveness: true}, {UseLiveness: true, UseSCEV: true},
	} {
		m, tool, _ := runHybrid(t, prog, cfg)
		if tool.Report.Total != 0 {
			t.Fatalf("cfg %+v: false positives: %v", cfg, tool.Report.Violations)
		}
		if m.ExitStatus != 0 {
			t.Fatalf("cfg %+v: exit = %d", cfg, m.ExitStatus)
		}
	}
}

func TestDetectsUseAfterFree(t *testing.T) {
	_, tool, _ := runHybrid(t, `
.module prog
.entry _start
.needs libj.jef
.import malloc
.import free
.section .text
_start:
    mov r1, 32
    call malloc
    mov r12, r0
    mov r1, r12
    call free
    ldq r6, [r12+0]     ; use after free
    mov r1, 0
    mov r0, 1
    syscall
`, Config{UseLiveness: true})
	found := false
	for _, v := range tool.Report.Violations {
		if v.Kind == "heap-use-after-free" {
			found = true
		}
	}
	if !found {
		t.Fatalf("use-after-free not detected: %v", tool.Report.Violations)
	}
}

// canaryProg has a function with a canary-protected frame and a heap
// pointer that overflows INTO the stack canary slot: only the canary
// poisoning catches this (heap-to-stack overflow, the Juliet CWE-122
// heap→stack shape).
const canaryProg = `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    call victim
    mov r1, 0
    mov r0, 1
    syscall
victim:
    push fp
    mov fp, sp
    sub sp, 32
    ldg r6
    stq [fp-8], r6      ; canary install
    ; overflow: write upward from a local buffer into the canary slot
    lea r7, [fp-24]     ; local buffer
    mov r8, 0
.w:
    stxb [r7+r8], r8    ; bytes fp-24 .. fp-5: hits canary at fp-8
    add r8, 1
    cmp r8, 20
    jl .w
    ldq r7, [fp-8]      ; canary check reload
    ldg r8
    cmp r7, r8
    je .good
    hlt                 ; canary smashed: app's own check fires too
.good:
    mov sp, fp
    pop fp
    ret
`

func TestCanaryPoisonDetectsStackSmash(t *testing.T) {
	_, tool, _ := runHybrid(t, canaryProg, Config{UseLiveness: true})
	found := false
	for _, v := range tool.Report.Violations {
		if v.Kind == "stack-canary-overwrite" {
			found = true
		}
	}
	if !found {
		t.Fatalf("canary overwrite not detected: total=%d %v",
			tool.Report.Total, tool.Report.Violations)
	}
}

func TestCanaryNoFalsePositiveOnCleanFunction(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    call victim
    call victim        ; canary slot reused across calls
    mov r1, 0
    mov r0, 1
    syscall
victim:
    push fp
    mov fp, sp
    sub sp, 32
    ldg r6
    stq [fp-8], r6
    lea r7, [fp-24]
    mov r8, 0
.w:
    stxb [r7+r8], r8
    add r8, 1
    cmp r8, 15          ; stays below the canary slot
    jl .w
    ldq r7, [fp-8]
    ldg r8
    cmp r7, r8
    je .good
    hlt
.good:
    mov sp, fp
    pop fp
    ret
`
	m, tool, _ := runHybrid(t, prog, Config{UseLiveness: true})
	if tool.Report.Total != 0 {
		t.Fatalf("false positives: %v", tool.Report.Violations)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d (app canary check failed?)", m.ExitStatus)
	}
}

func TestLivenessReducesOverhead(t *testing.T) {
	// The Fig. 8 base-vs-full comparison: the liveness-optimised hybrid
	// must be measurably cheaper than the conservative one on an
	// access-heavy loop, with identical results.
	prog := `
.module prog
.entry _start
.needs libj.jef
.import malloc
.section .text
_start:
    mov r1, 8000
    call malloc
    mov r12, r0
    mov r13, 0
.loop:
    stxq [r12+r13*8], r13
    ldxq r6, [r12+r13*8]
    add r13, 1
    cmp r13, 1000
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
`
	mBase, toolBase, _ := runHybrid(t, prog, Config{UseLiveness: false})
	mFull, toolFull, _ := runHybrid(t, prog, Config{UseLiveness: true})
	if toolBase.Report.Total != 0 || toolFull.Report.Total != 0 {
		t.Fatal("unexpected violations")
	}
	if mFull.Cycles >= mBase.Cycles {
		t.Fatalf("liveness optimisation did not help: full=%d base=%d",
			mFull.Cycles, mBase.Cycles)
	}
	saving := 1 - float64(mFull.Cycles)/float64(mBase.Cycles)
	t.Logf("liveness saving: %.1f%%", saving*100)
	if saving < 0.02 {
		t.Errorf("saving %.2f%% implausibly small", saving*100)
	}
}

func TestSCEVHoistingReducesOverheadAndKeepsDetection(t *testing.T) {
	inBounds := `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r6, arr
    mov r7, 0
.loop:
    ldxq r8, [r6+r7*8]
    add r7, 1
    cmp r7, 500
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
.section .data
arr:
    .zero 4000
`
	mPlain, _, _ := runHybrid(t, inBounds, Config{UseLiveness: true})
	mSCEV, toolSCEV, _ := runHybrid(t, inBounds, Config{UseLiveness: true, UseSCEV: true})
	if toolSCEV.Report.Total != 0 {
		t.Fatalf("SCEV-hoisted run reported: %v", toolSCEV.Report.Violations)
	}
	if mSCEV.Cycles >= mPlain.Cycles {
		t.Fatalf("hoisting did not help: scev=%d plain=%d", mSCEV.Cycles, mPlain.Cycles)
	}
	t.Logf("SCEV saving: %.1f%%", (1-float64(mSCEV.Cycles)/float64(mPlain.Cycles))*100)

	// Detection preserved: a heap loop overflowing past the object must
	// still be caught by the hoisted range check.
	overflow := `
.module prog
.entry _start
.needs libj.jef
.import malloc
.section .text
_start:
    mov r1, 800
    call malloc
    mov r6, r0
    mov r7, 0
.loop:
    ldxq r8, [r6+r7*8]  ; i runs to 101: 8 bytes into the right redzone
    add r7, 1
    cmp r7, 102
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
`
	_, tool, _ := runHybrid(t, overflow, Config{UseLiveness: true, UseSCEV: true})
	if tool.Report.Total == 0 {
		t.Fatal("hoisted check missed the overflow")
	}
}

func TestStaticPassRuleShapes(t *testing.T) {
	main, err := asm.Assemble(canaryProg)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(Config{UseLiveness: true})
	f, err := core.AnalyzeModule(main, tool)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[rules.ID]int{}
	for _, r := range f.Rules {
		counts[r.ID]++
	}
	if counts[rules.PoisonCanary] != 1 {
		t.Errorf("POISON_CANARY rules = %d, want 1", counts[rules.PoisonCanary])
	}
	if counts[rules.UnpoisonCanary] != 1 {
		t.Errorf("UNPOISON_CANARY rules = %d, want 1", counts[rules.UnpoisonCanary])
	}
	if counts[rules.MemAccess] == 0 {
		t.Error("no MEM_ACCESS rules")
	}
	if counts[rules.MemAccessSafe] < 2 {
		t.Errorf("MEM_ACCESS_SAFE rules = %d, want >= 2 (canary store+check)",
			counts[rules.MemAccessSafe])
	}
	if counts[rules.NoOp] == 0 {
		t.Error("no NO_OP rules for untouched blocks")
	}
}

func TestCoverageClassification(t *testing.T) {
	// Statically analyzed program: everything should be hit path.
	_, _, rt := runHybrid(t, heapOverflowProg, Config{UseLiveness: true})
	if rt.Coverage.Fallback != 0 {
		t.Errorf("static program had %d fallback blocks", rt.Coverage.Fallback)
	}
	if rt.Coverage.StaticInstrumented == 0 {
		t.Error("no statically instrumented blocks")
	}

	// Dyn-only run: everything is fallback.
	_, _, rtDyn := runDynOnly(t, heapOverflowProg, Config{})
	if rtDyn.Coverage.StaticInstrumented != 0 || rtDyn.Coverage.StaticNoOp != 0 {
		t.Errorf("dyn-only run classified blocks as static: %+v", rtDyn.Coverage)
	}
	if rtDyn.Coverage.Fallback == 0 {
		t.Error("dyn-only run had no fallback blocks")
	}
	if rtDyn.Coverage.DynamicFraction() != 1.0 {
		t.Errorf("dyn fraction = %f, want 1", rtDyn.Coverage.DynamicFraction())
	}
}

func TestDynFallbackCanaryDetection(t *testing.T) {
	// The canary scenario must also be caught with ONLY the dynamic
	// fallback (block-local pattern matching).
	_, tool, _ := runDynOnly(t, canaryProg, Config{})
	found := false
	for _, v := range tool.Report.Violations {
		if v.Kind == "stack-canary-overwrite" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback canary detection failed: %v", tool.Report.Violations)
	}
}

func TestHybridCheaperThanDynOnly(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.import malloc
.section .text
_start:
    mov r1, 4096
    call malloc
    mov r12, r0
    mov r13, 0
.loop:
    stxb [r12+r13], r13
    ldxb r6, [r12+r13]
    add r13, 1
    cmp r13, 4000
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
`
	mHy, _, _ := runHybrid(t, prog, Config{UseLiveness: true, UseSCEV: true})
	mDyn, _, _ := runDynOnly(t, prog, Config{})
	if mHy.Cycles >= mDyn.Cycles {
		t.Fatalf("hybrid (%d cycles) not cheaper than dyn-only (%d)",
			mHy.Cycles, mDyn.Cycles)
	}
	t.Logf("hybrid/dyn cycle ratio: %.2f", float64(mHy.Cycles)/float64(mDyn.Cycles))
}

func TestDlopenedCodeIsProtected(t *testing.T) {
	// A dlopened module with no rule file gets fallback instrumentation —
	// and its overflow is detected (the coverage argument of §3.4.3).
	plugin := `
.module plugin.jef
.type shared
.pic
.needs libj.jef
.import malloc
.global poke
.section .text
poke:
    push fp
    mov fp, sp
    mov r1, 16
    call malloc
    stq [r0+16], r0     ; off-by-16: first redzone quad
    mov sp, fp
    pop fp
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
    trap 3              ; dlopen
    mov r12, r0
    mov r1, r12
    la r2, sname
    mov r3, 4
    trap 4              ; dlsym "poke"
    calli r0
    mov r1, 0
    mov r0, 1
    syscall
.section .rodata
pname:
    .ascii "plugin.jef"
sname:
    .ascii "poke"
`
	lj, _ := libj.Module()
	plug, err := asm.Assemble(plugin)
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj, "plugin.jef": plug}
	main, err := asm.Assemble(mainSrc)
	if err != nil {
		t.Fatal(err)
	}
	tool := New(Config{UseLiveness: true})
	files, err := core.AnalyzeProgram(main, reg, tool) // plugin NOT analyzed (dlopen only)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := files["plugin.jef"]; ok {
		t.Fatal("plugin should not be in the ldd closure")
	}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 10_000_000
	proc := loader.NewProcess(m, reg)
	rt := core.NewRuntime(m, proc, tool, files)
	lm, err := proc.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}
	if tool.Report.Total == 0 {
		t.Fatal("overflow in dlopened code not detected")
	}
	if rt.Coverage.Fallback == 0 {
		t.Error("dlopened blocks not classified as fallback")
	}
}

func TestViolationStringAndReport(t *testing.T) {
	v := Violation{PC: 0x400100, Addr: 0x20000018, Width: 1,
		Shadow: ShadowHeapRedzone, Kind: "heap-buffer-overflow"}
	if !strings.Contains(v.String(), "heap-buffer-overflow") {
		t.Error("violation string missing kind")
	}
	r := &Report{HaltOnError: true}
	err := r.Add(v)
	f, ok := err.(*vm.Fault)
	if !ok || f.PC != v.PC || f.Addr != v.Addr || f.Kind != "jasan: heap-buffer-overflow" {
		t.Errorf("halting report returned %v", err)
	}
}

func TestShadowHelpersRoundtrip(t *testing.T) {
	m := vm.New()
	s := shadowMem{m}
	s.unpoisonObject(0x20000000, 13)
	b0, _ := m.Mem.ReadB(isa.ShadowAddr(0x20000000))
	b1, _ := m.Mem.ReadB(isa.ShadowAddr(0x20000008))
	if b0 != 0 || b1 != 5 {
		t.Fatalf("unpoison 13 bytes: shadow = %d,%d, want 0,5", b0, b1)
	}
	s.poisonRange(0x20000000, 16, ShadowFreed)
	b0, _ = m.Mem.ReadB(isa.ShadowAddr(0x20000000))
	if b0 != ShadowFreed {
		t.Fatalf("poison: shadow = %#x", b0)
	}
}

func TestASanAllocatorShape(t *testing.T) {
	m := vm.New()
	a := newASanAllocator(m)
	p1 := a.malloc(24)
	p2 := a.malloc(24)
	if p1 == 0 || p2 == 0 {
		t.Fatal("allocation failed")
	}
	if p2-p1 < 24+2*RedzoneSize {
		t.Fatalf("objects too close: %#x %#x (no redzone room)", p1, p2)
	}
	// Shadow: user addressable, redzones poisoned.
	if sb, _ := m.Mem.ReadB(isa.ShadowAddr(p1)); sb != 0 {
		t.Errorf("user shadow = %#x", sb)
	}
	if sb, _ := m.Mem.ReadB(isa.ShadowAddr(p1 - 8)); sb != ShadowHeapRedzone {
		t.Errorf("left redzone shadow = %#x", sb)
	}
	if sb, _ := m.Mem.ReadB(isa.ShadowAddr(p1 + 24)); sb != ShadowHeapRedzone {
		t.Errorf("right redzone shadow = %#x", sb)
	}
	a.free(p1)
	if sb, _ := m.Mem.ReadB(isa.ShadowAddr(p1)); sb != ShadowFreed {
		t.Errorf("freed shadow = %#x", sb)
	}
	// Quarantine delays reuse.
	p3 := a.malloc(24)
	if p3 == p1 {
		t.Error("freed block reused immediately despite quarantine")
	}
	// Double free of unknown pointer is ignored.
	a.free(0xdeadbeef)
}

var _ = obj.Module{}

// TestPartialGranuleByteChecks exercises the byte-access slow path: an
// odd-sized object's last granule has shadow 1..7, so in-bounds bytes in it
// must pass the partial comparison while the first byte past the object
// must report.
func TestPartialGranuleByteChecks(t *testing.T) {
	prog := `
.module prog
.entry _start
.needs libj.jef
.import malloc
.section .text
_start:
    mov r1, 13
    call malloc
    mov r12, r0
    ; all 13 bytes are addressable
    mov r13, 0
.ok:
    ldxb r6, [r12+r13]
    add r13, 1
    cmp r13, 13
    jl .ok
    ; byte 13 is in the partially-poisoned granule: must report
    ldb r6, [r12+13]
    mov r1, 0
    mov r0, 1
    syscall
`
	for _, mode := range []string{"hybrid", "dyn"} {
		var tool *Tool
		if mode == "hybrid" {
			_, tool, _ = runHybrid(t, prog, Config{UseLiveness: true})
		} else {
			_, tool, _ = runDynOnly(t, prog, Config{})
		}
		if tool.Report.Total != 1 {
			t.Errorf("%s: reports = %d, want exactly 1 (byte 13 only): %v",
				mode, tool.Report.Total, tool.Report.Violations)
		}
		if len(tool.Report.Violations) == 1 &&
			tool.Report.Violations[0].Kind != "partial-granule-overflow" {
			t.Errorf("%s: kind = %s", mode, tool.Report.Violations[0].Kind)
		}
	}
}
