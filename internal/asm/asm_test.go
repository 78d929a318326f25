package asm

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
)

func mustAssemble(t *testing.T, src string) *obj.Module {
	t.Helper()
	m, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return m
}

const tinyExec = `
.module prog
.type exec
.base 0x400000
.entry _start

.section .text
_start:
    mov r1, 7
    call main
    mov r1, r0
    mov r0, 1        ; SysExit
    syscall
.global main
main:
    push fp
    mov fp, sp
    add r1, 35
    mov r0, r1
    pop fp
    ret
`

func TestAssembleTinyExec(t *testing.T) {
	m := mustAssemble(t, tinyExec)
	if m.Name != "prog" || m.Type != obj.Exec || m.PIC {
		t.Fatalf("header wrong: %+v", m)
	}
	if m.Base != 0x400000 {
		t.Fatalf("base = %#x", m.Base)
	}
	text := m.Section(".text")
	if text == nil {
		t.Fatal("no .text")
	}
	start := m.FindSymbol("_start")
	if start == nil || start.Addr != m.Entry {
		t.Fatalf("_start symbol %+v, entry %#x", start, m.Entry)
	}
	main := m.FindSymbol("main")
	if main == nil || !main.Exported || main.Kind != obj.SymFunc {
		t.Fatalf("main symbol %+v", main)
	}
	if start.Exported {
		t.Error("_start should not be exported (no .global)")
	}
	// Decode the whole .text and check the instruction stream.
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatalf("decode .text: %v", err)
	}
	if len(ins) != 11 {
		t.Fatalf("decoded %d instructions, want 11:\n%s", len(ins), isa.DisasmBlock(ins))
	}
	// The call must target main.
	var call *isa.Instr
	for i := range ins {
		if ins[i].Op == isa.OpCall {
			call = &ins[i]
		}
	}
	if call == nil || call.Target() != main.Addr {
		t.Fatalf("call target %#x, want main at %#x", call.Target(), main.Addr)
	}
	// Symbol sizes are auto-computed.
	if start.Size == 0 || main.Size == 0 {
		t.Errorf("symbol sizes not filled: start=%d main=%d", start.Size, main.Size)
	}
}

func TestLabelBranchBackwards(t *testing.T) {
	m := mustAssemble(t, `
.module loop
.entry _start
.section .text
_start:
    mov r1, 10
.loop:
    sub r1, 1
    cmp r1, 0
    jne .loop
    hlt
`)
	text := m.Section(".text")
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatal(err)
	}
	var jne *isa.Instr
	for i := range ins {
		if ins[i].Op == isa.OpJne {
			jne = &ins[i]
		}
	}
	if jne == nil {
		t.Fatal("no jne")
	}
	// .loop is right after the first mov (10 bytes).
	want := text.Addr + 10
	if jne.Target() != want {
		t.Fatalf("jne target %#x, want %#x", jne.Target(), want)
	}
	// local label must not appear in symbol table
	if m.FindSymbol(".loop") != nil {
		t.Error(".loop leaked into symbol table")
	}
}

func TestMemoryOperands(t *testing.T) {
	m := mustAssemble(t, `
.module mem
.entry f
.section .text
f:
    ldq r1, [sp+8]
    stq [fp-16], r2
    ldb r3, [r4]
    ldxq r5, [r6+r7*8+32]
    stxb [r8+r9-1], r10
    lea r11, [sp+24]
    ret
`)
	text := m.Section(".text")
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		op   isa.Op
		rd   isa.Register
		rb   isa.Register
		ri   isa.Register
		disp int32
	}
	wants := []want{
		{isa.OpLdQ, isa.R1, isa.SP, 0, 8},
		{isa.OpStQ, isa.R2, isa.FP, 0, -16},
		{isa.OpLdB, isa.R3, isa.R4, 0, 0},
		{isa.OpLdXQ, isa.R5, isa.R6, isa.R7, 32},
		{isa.OpStXB, isa.R10, isa.R8, isa.R9, -1},
		{isa.OpLea, isa.R11, isa.SP, 0, 24},
		{isa.OpRet, 0, 0, 0, 0},
	}
	if len(ins) != len(wants) {
		t.Fatalf("got %d instrs, want %d:\n%s", len(ins), len(wants), isa.DisasmBlock(ins))
	}
	for i, w := range wants {
		in := ins[i]
		if in.Op != w.op || in.Rd != w.rd || in.Rb != w.rb || in.Ri != w.ri || in.Disp != w.disp {
			t.Errorf("instr %d: got %s (%+v), want %+v", i, isa.Disasm(&in), in, w)
		}
	}
}

func TestDataDirectives(t *testing.T) {
	m := mustAssemble(t, `
.module data
.entry f
.section .text
f:
    ret
.section .data
bytes:
    .byte 1, 2, 0xff
msg:
    .asciz "hi"
.align 8
table:
    .quad f
    .quad 12345
    .long 7
`)
	data := m.Section(".data")
	if data == nil {
		t.Fatal("no .data")
	}
	f := m.FindSymbol("f")
	table := m.FindSymbol("table")
	if table == nil {
		t.Fatal("no table symbol")
	}
	off := table.Addr - data.Addr
	if table.Addr%8 != 0 {
		t.Errorf("table not 8-aligned: %#x", table.Addr)
	}
	got := binary.LittleEndian.Uint64(data.Data[off:])
	if got != f.Addr {
		t.Errorf(".quad f = %#x, want %#x", got, f.Addr)
	}
	if v := binary.LittleEndian.Uint64(data.Data[off+8:]); v != 12345 {
		t.Errorf(".quad 12345 = %d", v)
	}
	if v := binary.LittleEndian.Uint32(data.Data[off+16:]); v != 7 {
		t.Errorf(".long 7 = %d", v)
	}
	if string(data.Data[3:6]) != "hi\x00" {
		t.Errorf("asciz = %q", data.Data[3:6])
	}
	if data.Data[0] != 1 || data.Data[1] != 2 || data.Data[2] != 0xff {
		t.Errorf("bytes = %v", data.Data[:3])
	}
	// Non-PIC module: symbolic .quad needs no reloc.
	for _, r := range m.Relocs {
		if r.Kind == obj.RelRebase {
			t.Errorf("unexpected rebase reloc in non-PIC module: %+v", r)
		}
	}
}

func TestPICModule(t *testing.T) {
	m := mustAssemble(t, `
.module libx.jef
.type shared
.pic
.global f
.section .text
f:
    la r1, tab
    leapc r2, f
    ret
.section .data
tab:
    .quad f
`)
	if !m.PIC || m.Base != 0 {
		t.Fatalf("PIC header wrong: PIC=%v base=%#x", m.PIC, m.Base)
	}
	// la must have become LeaPC, not MovRI.
	text := m.Section(".text")
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].Op != isa.OpLeaPC {
		t.Fatalf("la in PIC = %v, want leapc", ins[0].Op)
	}
	tab := m.FindSymbol("tab")
	if got := ins[0].Target; got == nil {
		_ = got
	}
	// leapc target: addr+size+disp == tab
	if want := tab.Addr; ins[0].Addr+uint64(ins[0].Size)+uint64(int64(ins[0].Disp)) != want {
		t.Errorf("la disp resolves to %#x, want %#x",
			ins[0].Addr+uint64(ins[0].Size)+uint64(int64(ins[0].Disp)), want)
	}
	// The symbolic .quad must carry a rebase reloc.
	found := false
	for _, r := range m.Relocs {
		if r.Kind == obj.RelRebase && r.Where == tab.Addr {
			found = true
		}
	}
	if !found {
		t.Error("missing RelRebase for .quad f in PIC module")
	}
}

func TestNonPICLa(t *testing.T) {
	m := mustAssemble(t, `
.module abs
.entry f
.section .text
f:
    la r1, f
    ret
`)
	text := m.Section(".text")
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].Op != isa.OpMovRI {
		t.Fatalf("la in non-PIC = %v, want mov-imm64", ins[0].Op)
	}
	if uint64(ins[0].Imm) != m.FindSymbol("f").Addr {
		t.Errorf("la imm = %#x, want f addr %#x", ins[0].Imm, m.FindSymbol("f").Addr)
	}
}

func TestImportsGeneratePLT(t *testing.T) {
	m := mustAssemble(t, `
.module prog
.entry _start
.needs libj.jef
.import malloc
.import free
.section .text
_start:
    mov r1, 64
    call malloc
    mov r1, r0
    call free
    hlt
`)
	if len(m.Imports) != 2 {
		t.Fatalf("imports = %d, want 2", len(m.Imports))
	}
	plt := m.Section(".plt")
	got := m.Section(".got")
	if plt == nil || got == nil {
		t.Fatal("missing .plt or .got")
	}
	if !plt.Executable() {
		t.Error(".plt not executable")
	}
	if len(plt.Data) != 24*3 {
		t.Errorf(".plt size = %d, want 72", len(plt.Data))
	}
	if len(got.Data) != 16 {
		t.Errorf(".got size = %d, want 16", len(got.Data))
	}

	// calls must target the PLT stubs
	text := m.Section(".text")
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatal(err)
	}
	var calls []uint64
	for i := range ins {
		if ins[i].Op == isa.OpCall {
			calls = append(calls, ins[i].Target())
		}
	}
	if len(calls) != 2 || calls[0] != m.Imports[0].PLT || calls[1] != m.Imports[1].PLT {
		t.Fatalf("call targets %#x, want PLT %#x %#x",
			calls, m.Imports[0].PLT, m.Imports[1].PLT)
	}

	// PLT slot 0 ends in push r0; ret (the ld.so abnormality).
	stub, err := isa.DecodeAll(plt.Data[:8], plt.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if stub[0].Op != isa.OpTrap || stub[0].Imm != isa.TrapResolve {
		t.Errorf("plt0[0] = %s, want trap %d", isa.Disasm(&stub[0]), isa.TrapResolve)
	}
	if stub[1].Op != isa.OpPush || stub[2].Op != isa.OpRet {
		t.Errorf("plt0 tail = %s; %s, want push r0; ret",
			isa.Disasm(&stub[1]), isa.Disasm(&stub[2]))
	}

	// Import stub k: ldpc through its GOT slot then jmpi.
	for k, im := range m.Imports {
		off := im.PLT - plt.Addr
		entry, err := isa.DecodeAll(plt.Data[off:off+8], im.PLT)
		if err != nil {
			t.Fatalf("decode plt entry %d: %v", k, err)
		}
		if entry[0].Op != isa.OpLdPC || entry[1].Op != isa.OpJmpI {
			t.Fatalf("plt entry %d: %s; %s", k,
				isa.Disasm(&entry[0]), isa.Disasm(&entry[1]))
		}
		slot := entry[0].Addr + uint64(entry[0].Size) + uint64(int64(entry[0].Disp))
		if slot != im.GOT {
			t.Errorf("plt entry %d reads %#x, want GOT %#x", k, slot, im.GOT)
		}
		// Initial GOT value: lazy stub at PLT+8.
		init := binary.LittleEndian.Uint64(got.Data[im.GOT-got.Addr:])
		if init != im.PLT+8 {
			t.Errorf("GOT[%d] initial = %#x, want lazy stub %#x", k, init, im.PLT+8)
		}
	}

	// GOT relocs present.
	nGot := 0
	for _, r := range m.Relocs {
		if r.Kind == obj.RelGotFunc {
			nGot++
		}
	}
	if nGot != 2 {
		t.Errorf("RelGotFunc relocs = %d, want 2", nGot)
	}
	if m.Needed[0] != "libj.jef" {
		t.Errorf("needed = %v", m.Needed)
	}
}

func TestSectionOrdering(t *testing.T) {
	m := mustAssemble(t, `
.module ord
.entry f
.import x
.section .data
d: .quad 1
.section .text
f: ret
.section .rodata
r: .byte 9
`)
	var names []string
	for _, s := range m.Sections {
		names = append(names, s.Name)
	}
	want := []string{".plt", ".text", ".rodata", ".data", ".got"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("section order = %v, want %v", names, want)
	}
	// Ascending, non-overlapping addresses (Validate enforces overlap).
	for i := 1; i < len(m.Sections); i++ {
		if m.Sections[i].Addr <= m.Sections[i-1].Addr {
			t.Fatalf("sections not in ascending address order: %v", names)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no module", ".section .text\nf: ret", "missing .module"},
		{"unknown mnemonic", ".module m\n.entry f\nf: frob r1", "unknown mnemonic"},
		{"bad operand combo", ".module m\n.entry f\nf: mov 4, r1", "unsupported operand"},
		{"undefined symbol", ".module m\n.entry f\nf: jmp nowhere", "undefined symbol"},
		{"duplicate label", ".module m\n.entry f\nf: ret\nf: ret", "duplicate label"},
		{"bad directive", ".module m\n.bogus 4", "unknown directive"},
		{"bad type", ".module m\n.type weird", ".type"},
		{"entry undefined", ".module m\n.entry nope\n.section .text\nf: ret", "entry symbol"},
		{"bad reg", ".module m\n.entry f\nf: push r16", "unsupported operand"},
		{"two indexes", ".module m\n.entry f\nf: ldxq r1, [r2+r3+r4]", "two index registers"},
		{"data outside section", ".module m\n.ascii \"x\"", "outside section"},
		{"reserved section", ".module m\n.entry f\nf: ret\n.section .plt\ng: ret", "reserved"},
		{"ldpc symbol in pc operand", ".module m\n.entry f\nf: ldpc r1, [pc+far]\nfar: ret", "write it as the operand (ldpc/leapc rd, far)"},
		{"leapc symbol in pc operand", ".module m\n.entry f\nf: leapc r1, [pc+far]\nfar: ret", "write it as the operand (ldpc/leapc rd, far)"},
		{"zero past the address space", ".module m\n.entry f\nf: ret\n.section .data\n.zero 30000000000", "line 5: section .data passes the end of the address space"},
		{"text past the address space", ".module m\n.base 0x7ffffffc\n.entry f\nf: mov r1, 1\nret", "line 4: section .text passes the end of the address space"},
	}
	for _, tc := range cases {
		_, err := Assemble(tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCommentsAndLabelsOnOneLine(t *testing.T) {
	m := mustAssemble(t, `
.module c
.entry f
.section .text
f: mov r1, 1   ; trailing comment
   # whole-line comment
   // another
g: h: ret      ; two labels share an address
`)
	g := m.FindSymbol("g")
	h := m.FindSymbol("h")
	if g == nil || h == nil || g.Addr != h.Addr {
		t.Fatalf("g=%+v h=%+v", g, h)
	}
}

func TestStripLevels(t *testing.T) {
	m := mustAssemble(t, ".module m\n.strip stripped\n.entry f\n.section .text\nf: ret")
	if m.SymLevel != obj.SymStripped {
		t.Errorf("symlevel = %v", m.SymLevel)
	}
}

func TestRoundtripThroughMarshal(t *testing.T) {
	m := mustAssemble(t, tinyExec)
	m2, err := obj.Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Name != m.Name || m2.Entry != m.Entry {
		t.Error("marshal roundtrip lost header fields")
	}
}
