// Dynamic-code demo: comprehensive coverage for code the static analyzer
// never sees. The program dlopens a plugin (invisible to ldd) and also
// writes a small function into an executable buffer at run time (JIT);
// JASan's dynamic fallback still instruments both and catches the plugin's
// heap overflow — the coverage argument of §3.4.3 and Fig. 14.
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jasan"
	"repro/internal/libj"
	"repro/internal/loader"
	"strings"
)

// The plugin is only reachable through dlopen: no .needs entry anywhere.
const plugin = `
int process(int n) {
    char *buf = malloc(n);
    for (int i = 0; i <= n; i++) buf[i] = i;   // BUG: one past the end
    int s = buf[0] + buf[n-1];
    free(buf);
    return s;
}`

// The host dlopens the plugin AND JIT-compiles a tiny add function into an
// executable buffer.
const hostAsm = `
.module host
.entry _start
.needs libj.jef
.section .text
_start:
    ; dlopen("plugin.jef") and call process(24)
    la r1, pname
    mov r2, 10
    trap 3
    mov r12, r0
    mov r1, r12
    la r2, sname
    mov r3, 7
    trap 4
    mov r1, 24
    calli r0

    ; JIT: copy a generated function into fresh executable memory, call it
    mov r1, 64
    mov r0, 4           ; SysMmapX
    syscall
    mov r12, r0
    la r7, blob
    mov r8, 0
.copy:
    ldxb r9, [r7+r8]
    stxb [r12+r8], r9
    add r8, 1
    cmp r8, BLOBLEN
    jl .copy
    mov r1, 21
    calli r12           ; call the generated code
    mov r1, r0
    mov r0, 1
    syscall

.section .rodata
pname:
    .ascii "plugin.jef"
sname:
    .ascii "process"
blob:
BLOBBYTES
`

func main() {
	// Generate the JIT blob: double(x) = x + x; return.
	var blob []byte
	for _, in := range []isa.Instr{
		{Op: isa.OpMovRR, Rd: isa.R0, Rb: isa.R1},
		{Op: isa.OpAddRR, Rd: isa.R0, Rb: isa.R1},
		{Op: isa.OpRet},
	} {
		in := in
		blob = isa.Encode(blob, &in)
	}
	src := hostAsm
	bytesDecl := ""
	for _, b := range blob {
		bytesDecl += fmt.Sprintf("    .byte %d\n", b)
	}
	src = strings.ReplaceAll(src, "BLOBBYTES", bytesDecl)
	src = strings.ReplaceAll(src, "BLOBLEN", fmt.Sprintf("%d", len(blob)))

	host, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	plug, err := cc.Compile(plugin, cc.Options{
		Module: "plugin.jef", Shared: true, O2: true, NoRuntime: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		log.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj, "plugin.jef": plug}

	tool := jasan.New(jasan.Config{UseLiveness: true})
	// Static analysis covers ONLY the ldd-visible closure: host + libj.
	files, err := core.AnalyzeProgram(host, reg, tool)
	if err != nil {
		log.Fatal(err)
	}
	if _, analyzed := files["plugin.jef"]; analyzed {
		log.Fatal("plugin should be invisible to the static analyzer")
	}

	s, err := core.Load(host, reg, tool, files, core.Options{MaxInstrs: 10_000_000})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	m, rt := s.M, s.RT

	fmt.Printf("exit status (JIT double(21)): %d\n", m.ExitStatus)
	fmt.Printf("blocks: %d statically seen, %d only discovered dynamically (%.1f%%)\n",
		rt.Coverage.StaticInstrumented+rt.Coverage.StaticNoOp,
		rt.Coverage.Fallback, 100*rt.Coverage.DynamicFraction())
	fmt.Printf("violations found in dlopened code: %d\n", tool.Report.Total)
	for _, v := range tool.Report.Violations {
		fmt.Printf("  %s\n", v)
	}
	if tool.Report.Total == 0 {
		log.Fatal("the plugin's overflow went undetected")
	}
}
