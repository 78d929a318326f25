package isa

import (
	"fmt"
	"strings"
)

// Disasm formats in as human-readable assembly in the syntax accepted by the
// jas assembler. Direct branch targets are printed as absolute addresses.
func Disasm(in *Instr) string {
	o := &opTable[in.Op]
	switch o.Form {
	case FormNone:
		return in.Op.String()
	case FormR:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case FormRR:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rb)
	case FormRI64, FormRI32:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case FormMem:
		if o.Mem == MemStore {
			return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.Rb, in.Disp, in.Rd)
		}
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Rd, in.Rb, in.Disp)
	case FormMemX:
		scale := ""
		if o.Addr == AddrIndex8 {
			scale = "*8"
		}
		if o.Mem == MemStore {
			return fmt.Sprintf("%s [%s+%s%s%+d], %s",
				in.Op, in.Rb, in.Ri, scale, in.Disp, in.Rd)
		}
		return fmt.Sprintf("%s %s, [%s+%s%s%+d]",
			in.Op, in.Rd, in.Rb, in.Ri, scale, in.Disp)
	case FormPC:
		return fmt.Sprintf("%s %s, [pc%+d]", in.Op, in.Rd, in.Disp)
	case FormBr:
		if in.Addr != 0 || in.Size != 0 {
			return fmt.Sprintf("%s %#x", in.Op, in.Target())
		}
		return fmt.Sprintf("%s %+d", in.Op, in.Disp)
	case FormImm:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return in.Op.String()
}

// DisasmBlock formats a sequence of instructions, one per line, with
// addresses, in objdump style.
func DisasmBlock(ins []Instr) string {
	var b strings.Builder
	for i := range ins {
		fmt.Fprintf(&b, "%8x:\t%s\n", ins[i].Addr, Disasm(&ins[i]))
	}
	return b.String()
}
