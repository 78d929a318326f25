package asm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestDisasmReassembleRoundtrip: disassembling a module's .text and feeding
// the text back through the assembler reproduces the exact code bytes —
// the reassembleable-disassembly property Retrowrite-class tools depend on.
// The code holds one instruction per opcode in the table, written as Disasm
// prints it and checked against its encoding, then hand-written operand
// spellings.
func TestDisasmReassembleRoundtrip(t *testing.T) {
	const base = 0x400000
	var gen strings.Builder
	var want []byte
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		in := isa.Instr{Op: op, Rd: isa.R3, Rb: isa.R7, Ri: isa.R12, Disp: 24,
			Imm: -5, Addr: base + uint64(len(want)), Size: isa.EncodedSize(op)}
		if op.Info().Form == isa.FormRI64 {
			in.Imm = -1 << 40
		}
		line := isa.Disasm(&in)
		if op.Info().Form == isa.FormBr {
			in.Disp = -int32(len(want)) - int32(in.Size) // to _start
			line = op.String() + " _start"
		}
		want = isa.Encode(want, &in)
		gen.WriteString("    " + line + "\n")
	}
	orig, err := Assemble(`
.module t
.entry _start
.base 0x400000
.section .text
_start:
` + gen.String() + `
    mov r1, 42
    ldq r2, [sp+8]
    stxb [r3+r4-1], r5
    leax r6, [r7+r8*8+16]
    cmp r1, r2
    jne _start
    calli r6
    pushf
    popf
    trap 7
    ldg r9
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	text := orig.Section(".text")
	if !bytes.HasPrefix(text.Data, want) {
		t.Fatalf("one instruction per opcode assembled to\n% x\nwant\n% x\nsource:\n%s",
			text.Data[:min(len(want), len(text.Data))], want, gen.String())
	}
	ins, err := isa.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild assembly from the disassembly. Branch targets print as
	// absolute addresses, so emit them as label-free `sym+off` via a
	// single leading label.
	var b strings.Builder
	b.WriteString(".module t\n.entry L0\n.base 0x400000\n.section .text\nL0:\n")
	for i := range ins {
		line := isa.Disasm(&ins[i])
		// Absolute branch targets -> L0+offset expressions.
		if ins[i].IsCTI() && !ins[i].IsIndirectCTI() && ins[i].Op != isa.OpHlt {
			off := ins[i].Target() - text.Addr
			line = fmt.Sprintf("%s L0+%d", ins[i].Op, off)
		}
		b.WriteString("    " + line + "\n")
	}
	re, err := Assemble(b.String())
	if err != nil {
		t.Fatalf("reassembly failed: %v\nsource:\n%s", err, b.String())
	}
	reText := re.Section(".text")
	if len(reText.Data) != len(text.Data) {
		t.Fatalf("reassembled size %d != %d", len(reText.Data), len(text.Data))
	}
	for i := range text.Data {
		if text.Data[i] != reText.Data[i] {
			t.Fatalf("byte %d differs: %#x vs %#x", i, text.Data[i], reText.Data[i])
		}
	}
}
