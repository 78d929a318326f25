package loader

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/obj"
	"repro/internal/vm"
)

// buildRegistry returns a registry containing libj plus any extra sources.
func buildRegistry(t *testing.T, extra map[string]string) Registry {
	t.Helper()
	reg := Registry{}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg[libj.Name] = lj
	for name, src := range extra {
		m, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble %s: %v", name, err)
		}
		reg[name] = m
	}
	return reg
}

// runProgram loads and natively executes a main program source.
func runProgram(t *testing.T, src string, extra map[string]string) (*vm.Machine, *Process, error) {
	t.Helper()
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 5_000_000
	reg := buildRegistry(t, extra)
	p := NewProcess(m, reg)
	main, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble main: %v", err)
	}
	lm, err := p.LoadProgram(main)
	if err != nil {
		return m, p, err
	}
	return m, p, m.Run(lm.RuntimeAddr(main.Entry))
}

const mainUsingMalloc = `
.module prog
.type exec
.base 0x400000
.entry _start
.needs libj.jef
.import malloc
.import free
.import memset

.section .text
_start:
    mov r1, 128
    call malloc
    mov r12, r0         ; p (callee-saved: survives the libj calls)
    mov r1, r12
    mov r2, 7
    mov r3, 128
    call memset
    ldb r13, [r12+100]  ; read back one byte
    mov r1, r12
    call free
    mov r1, r13
    mov r0, 1
    syscall
`

func TestLoadAndRunWithImports(t *testing.T) {
	m, p, err := runProgram(t, mainUsingMalloc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 7 {
		t.Fatalf("exit = %d, want 7", m.ExitStatus)
	}
	// Lazy binding resolved malloc, memset and free once each.
	if p.LazyResolutions != 3 {
		t.Errorf("lazy resolutions = %d, want 3", p.LazyResolutions)
	}
	// libj was loaded as a dependency before the main module.
	lj := p.ModuleByName(libj.Name)
	if lj == nil || lj.ID != 0 {
		t.Fatalf("libj not first: %+v", lj)
	}
	if !lj.PIC || lj.LoadBase < isa.LayoutLibBase {
		t.Errorf("libj base = %#x", lj.LoadBase)
	}
}

func TestLazyBindingBindsGOTOnce(t *testing.T) {
	m, p, err := runProgram(t, `
.module prog
.entry _start
.needs libj.jef
.import rand
.section .text
_start:
    call rand
    call rand
    call rand
    mov r1, 0
    mov r0, 1
    syscall
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.LazyResolutions != 1 {
		t.Errorf("rand resolved %d times, want 1 (GOT rebinding broken)", p.LazyResolutions)
	}
	// The GOT slot now holds rand's run-time address.
	prog := p.ModuleByName("prog")
	got, err := m.Mem.Read64(prog.RuntimeAddr(prog.Imports[0].GOT))
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := p.ResolveSymbol("rand")
	if !ok || got != want {
		t.Errorf("GOT slot = %#x, want rand at %#x", got, want)
	}
}

func TestEagerBinding(t *testing.T) {
	machine := vm.New()
	machine.InstallDefaultServices()
	machine.MaxInstrs = 1_000_000
	reg := buildRegistry(t, nil)
	p := NewProcess(machine, reg)
	p.Lazy = false
	main, err := asm.Assemble(mainUsingMalloc)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := p.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}
	if machine.ExitStatus != 7 {
		t.Fatalf("exit = %d, want 7", machine.ExitStatus)
	}
	if p.LazyResolutions != 0 {
		t.Errorf("eager mode performed %d lazy resolutions", p.LazyResolutions)
	}
}

func TestPICRelocationOfDataPointers(t *testing.T) {
	// A PIC library with a jump-table-like data pointer: after loading,
	// the relocated quad must equal the run-time address of the target.
	lib := `
.module libtab.jef
.type shared
.pic
.global getfn
.section .text
getfn:
    la r6, table
    ldq r0, [r6+0]
    ret
target:
    mov r0, 31337
    ret
.section .data
table:
    .quad target
`
	m, p, err := runProgram(t, `
.module prog
.entry _start
.needs libtab.jef
.import getfn
.section .text
_start:
    call getfn
    calli r0
    mov r1, r0
    mov r0, 1
    syscall
`, map[string]string{"libtab.jef": lib})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 31337 {
		t.Fatalf("exit = %d, want 31337 (rebase reloc broken)", m.ExitStatus)
	}
	if p.ModuleByName("libtab.jef") == nil {
		t.Fatal("libtab not loaded")
	}
}

func TestQsortCallback(t *testing.T) {
	// Sorts a 5-element array with a callback defined in the main module:
	// a cross-module stack-passed function pointer (the Lockdown trap).
	m, _, err := runProgram(t, `
.module prog
.entry _start
.needs libj.jef
.import qsort
.section .text
_start:
    la r1, arr
    mov r2, 5
    la r3, cmpfn
    call qsort
    ; verify ascending: exit with arr[0]*1000 + arr[4]
    la r6, arr
    ldq r7, [r6+0]
    mul r7, 1000
    ldq r8, [r6+32]
    add r7, r8
    mov r1, r7
    mov r0, 1
    syscall
cmpfn:
    ; cmp(a r1, b r2) -> negative if a < b
    mov r0, r1
    sub r0, r2
    ret
.section .data
arr:
    .quad 5
    .quad 3
    .quad 9
    .quad 1
    .quad 7
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 1009 {
		t.Fatalf("qsort result = %d, want 1009", m.ExitStatus)
	}
}

// plugin is a shared module loaded only through dlopen; it exports
// compute(x) = x*x.
const plugin = `
.module plugin.jef
.type shared
.pic
.global compute
.section .text
compute:
    mov r0, r1
    mul r0, r1
    ret
.section .data
name:
    .quad 0
`

func TestDlopenAndDlsym(t *testing.T) {
	m, p, err := runProgram(t, `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r1, pname
    mov r2, 10
    trap 3              ; dlopen("plugin.jef")
    cmp r0, 0
    je .fail
    mov r6, r0
    mov r1, r6
    la r2, sname
    mov r3, 7
    trap 4              ; dlsym(handle, "compute")
    cmp r0, 0
    je .fail
    mov r1, 9
    calli r0
    mov r1, r0
    mov r0, 1
    syscall
.fail:
    mov r1, 255
    mov r0, 1
    syscall
.section .rodata
pname:
    .ascii "plugin.jef"
sname:
    .ascii "compute"
`, map[string]string{"plugin.jef": plugin})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 81 {
		t.Fatalf("dlopen/dlsym compute(9) = %d, want 81", m.ExitStatus)
	}
	pl := p.ModuleByName("plugin.jef")
	if pl == nil || !pl.Dlopened {
		t.Fatalf("plugin not marked dlopened: %+v", pl)
	}
	if p.ModuleByName(libj.Name).Dlopened {
		t.Error("static dependency marked dlopened")
	}
}

// TestDlNameLengthBounded: the name lengths dlopen and dlsym take from
// guest registers are bounded, so a huge length returns a null handle
// instead of sizing a host buffer from it. The plugin still loads and
// resolves under its real lengths afterwards.
func TestDlNameLengthBounded(t *testing.T) {
	m, _, err := runProgram(t, `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r1, pname
    mov r2, 0x4000000000000000
    trap 3              ; dlopen(name, 1<<62)
    cmp r0, 0
    jne .fail
    la r1, pname
    mov r2, 0x10000000000
    trap 3              ; dlopen(name, 1<<40)
    cmp r0, 0
    jne .fail
    la r1, pname
    mov r2, 10
    trap 3              ; dlopen("plugin.jef")
    cmp r0, 0
    je .fail
    mov r6, r0
    mov r1, r6
    la r2, sname
    mov r3, 0x4000000000000000
    trap 4              ; dlsym(handle, name, 1<<62)
    cmp r0, 0
    jne .fail
    mov r1, r6
    la r2, sname
    mov r3, 0x10000000000
    trap 4              ; dlsym(handle, name, 1<<40)
    cmp r0, 0
    jne .fail
    mov r1, r6
    la r2, sname
    mov r3, 7
    trap 4              ; dlsym(handle, "compute")
    cmp r0, 0
    je .fail
    mov r1, 0
    mov r0, 1
    syscall
.fail:
    mov r1, 255
    mov r0, 1
    syscall
.section .rodata
pname:
    .ascii "plugin.jef"
sname:
    .ascii "compute"
`, map[string]string{"plugin.jef": plugin})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d, want 0 (a bounded name got a handle, or the real one did not)", m.ExitStatus)
	}
}

func TestInitSectionCodeRuns(t *testing.T) {
	// _jinit lives in libj's .init section; calling it must work and
	// reseed the RNG deterministically.
	m, _, err := runProgram(t, `
.module prog
.entry _start
.needs libj.jef
.import _jinit
.import rand
.section .text
_start:
    call _jinit
    call rand
    mov r13, r0
    call _jinit
    call rand
    cmp r0, r13
    je .ok
    mov r1, 1
    mov r0, 1
    syscall
.ok:
    mov r1, 0
    mov r0, 1
    syscall
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 0 {
		t.Fatal("rand after _jinit not deterministic; .init code broken")
	}
}

func TestModuleAtAndAddressTranslation(t *testing.T) {
	m := vm.New()
	m.InstallDefaultServices()
	reg := buildRegistry(t, nil)
	p := NewProcess(m, reg)
	main, _ := asm.Assemble(mainUsingMalloc)
	lm, err := p.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ModuleAt(lm.RuntimeAddr(main.Entry)); got != lm {
		t.Errorf("ModuleAt(entry) = %v", got)
	}
	lj := p.ModuleByName(libj.Name)
	sym := lj.FindSymbol("qsort")
	rt := lj.RuntimeAddr(sym.Addr)
	if got := p.ModuleAt(rt); got != lj {
		t.Errorf("ModuleAt(qsort) = %v", got)
	}
	if lj.LinkAddr(rt) != sym.Addr {
		t.Errorf("LinkAddr roundtrip broken")
	}
	if p.ModuleAt(0x7777_0000) != nil {
		t.Error("ModuleAt(hole) should be nil")
	}
}

func TestLddClosure(t *testing.T) {
	reg := buildRegistry(t, map[string]string{
		"libmid.jef": `
.module libmid.jef
.type shared
.pic
.needs libj.jef
.global midfn
.section .text
midfn:
    ret
`,
	})
	main, _ := asm.Assemble(`
.module prog
.entry _start
.needs libmid.jef
.section .text
_start:
    hlt
`)
	mods, err := LddClosure(main, reg)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range mods {
		names = append(names, m.Name)
	}
	want := "libj.jef libmid.jef prog"
	if strings.Join(names, " ") != want {
		t.Fatalf("closure = %v, want %q", names, want)
	}
	// Missing dependency errors.
	bad, _ := asm.Assemble(".module b\n.entry f\n.needs nothere.jef\n.section .text\nf: hlt")
	if _, err := LddClosure(bad, reg); err == nil {
		t.Error("missing dependency should error")
	}
}

func TestLoadErrors(t *testing.T) {
	m := vm.New()
	reg := buildRegistry(t, nil)
	p := NewProcess(m, reg)

	// Unknown dlopen target returns handle 0, not an error.
	if _, err := p.Dlopen("missing.jef"); err == nil {
		t.Error("Dlopen of unknown module should error at the Go API level")
	}

	// Missing static dependency.
	main, _ := asm.Assemble(".module p\n.entry f\n.needs gone.jef\n.section .text\nf: hlt")
	if _, err := p.LoadProgram(main); err == nil {
		t.Error("missing needed module should error")
	}

	// Overlapping fixed-base modules.
	a, _ := asm.Assemble(".module a\n.entry f\n.base 0x400000\n.section .text\nf: hlt")
	b, _ := asm.Assemble(".module b\n.entry f\n.base 0x400000\n.section .text\nf: hlt")
	if _, err := p.LoadProgram(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadProgram(b); err == nil {
		t.Error("overlapping non-PIC modules should error")
	}

	// Loading the same module twice is idempotent.
	lm1, _ := p.LoadProgram(a)
	lm2, err := p.LoadProgram(a)
	if err != nil || lm1 != lm2 {
		t.Error("re-loading a module should return the existing instance")
	}
}

func TestOnModuleLoadHook(t *testing.T) {
	m := vm.New()
	m.InstallDefaultServices()
	reg := buildRegistry(t, nil)
	p := NewProcess(m, reg)
	var loaded []string
	p.OnModuleLoad = append(p.OnModuleLoad, func(lm *LoadedModule) {
		loaded = append(loaded, lm.Name)
	})
	main, _ := asm.Assemble(mainUsingMalloc)
	if _, err := p.LoadProgram(main); err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0] != libj.Name || loaded[1] != "prog" {
		t.Fatalf("hook order = %v", loaded)
	}
}

func TestDistinctPICBases(t *testing.T) {
	libA := ".module a.jef\n.type shared\n.pic\n.global fa\n.section .text\nfa: ret"
	libB := ".module b.jef\n.type shared\n.pic\n.global fb\n.section .text\nfb: ret"
	m := vm.New()
	reg := buildRegistry(t, map[string]string{"a.jef": libA, "b.jef": libB})
	p := NewProcess(m, reg)
	la, err := p.Dlopen("a.jef")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := p.Dlopen("b.jef")
	if err != nil {
		t.Fatal(err)
	}
	if la.LoadBase == lb.LoadBase {
		t.Fatal("two PIC modules share a base")
	}
	if lb.LoadBase-la.LoadBase < isa.LayoutLibStride {
		t.Fatalf("bases too close: %#x %#x", la.LoadBase, lb.LoadBase)
	}
}

func TestResolveSymbolScope(t *testing.T) {
	m := vm.New()
	reg := buildRegistry(t, nil)
	p := NewProcess(m, reg)
	if _, _, ok := p.ResolveSymbol("qsort"); ok {
		t.Error("symbol resolved before any module loaded")
	}
	lj, _ := libj.Module()
	if _, err := p.load(lj, false); err != nil {
		t.Fatal(err)
	}
	addr, owner, ok := p.ResolveSymbol("qsort")
	if !ok || owner.Name != libj.Name {
		t.Fatalf("qsort: ok=%v owner=%v", ok, owner)
	}
	sym := lj.FindSymbol("qsort")
	if addr != owner.RuntimeAddr(sym.Addr) {
		t.Error("resolved address mismatch")
	}
	// Local (non-exported) symbols are invisible.
	if _, _, ok := p.ResolveSymbol("rand_state"); ok {
		t.Error("non-exported data symbol leaked" + " into dynamic resolution")
	}
}

var _ = obj.Module{} // keep the import for doc references in tests
