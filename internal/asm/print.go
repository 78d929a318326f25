package asm

import (
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/obj"
)

// Text prints the unit as assembly source: its header directives, then
// each declared section in layout order. Assembling the text yields the
// module Link returns.
func (u *Unit) Text() string {
	var b strings.Builder
	b.WriteString(".module " + u.Name + "\n")
	if u.Type == obj.SharedObj {
		b.WriteString(".type shared\n")
	} else {
		b.WriteString(".type exec\n")
	}
	if u.PIC {
		b.WriteString(".pic\n")
	} else {
		b.WriteString(".base 0x" + strconv.FormatUint(u.Base, 16) + "\n")
	}
	if u.Entry != "" {
		b.WriteString(".entry " + u.Entry + "\n")
	}
	switch u.Strip {
	case obj.SymExports:
		b.WriteString(".strip exports\n")
	case obj.SymStripped:
		b.WriteString(".strip stripped\n")
	}
	for _, n := range u.Needs {
		b.WriteString(".needs " + n + "\n")
	}
	for _, n := range u.Imports {
		b.WriteString(".import " + n + "\n")
	}
	for _, n := range u.Globals {
		b.WriteString(".global " + n + "\n")
	}
	secs := append([]*Section(nil), u.sections...)
	stableSortSections(secs)
	for _, s := range secs {
		b.WriteString("\n.section " + s.name + "\n")
		for i := range s.items {
			writeItem(&b, &s.items[i])
		}
	}
	return b.String()
}

// writeItem prints one item as a source line. Labels and .align sit at
// the left margin; everything else is indented four spaces.
func writeItem(b *strings.Builder, it *item) {
	switch it.kind {
	case itemLabel:
		b.WriteString(it.str + ":\n")
		return
	case itemAlign:
		b.WriteString(".align " + strconv.FormatInt(it.val, 10) + "\n")
		return
	}
	b.WriteString("    ")
	switch it.kind {
	case itemInstr:
		in := isa.Instr{Op: it.op, Rd: it.rd, Rb: it.rb, Ri: it.ri, Disp: it.disp, Imm: it.val}
		text := isa.Disasm(&in)
		if it.op.Info().Addr.Indexed() && it.disp == 0 {
			// [rb+ri] leaves a zero displacement out.
			text = strings.Replace(text, "+0]", "]", 1)
		}
		b.WriteString(text)
	case itemRef:
		b.WriteString(it.op.String() + " ")
		if it.op.Info().Form == isa.FormPC {
			b.WriteString(it.rd.String() + ", ")
		}
		b.WriteString(symExpr(it.str, it.val))
	case itemLa:
		b.WriteString("la " + it.rd.String() + ", " + symExpr(it.str, it.val))
	case itemQuad:
		b.WriteString(".quad " + symExpr(it.str, it.val))
	case itemLong:
		b.WriteString(".long " + symExpr(it.str, it.val))
	case itemByte:
		b.WriteString(".byte ")
		for i := 0; i < len(it.str); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(int(it.str[i])))
		}
	case itemAscii:
		b.WriteString(".ascii " + strconv.Quote(it.str))
	case itemAsciz:
		b.WriteString(".asciz " + strconv.Quote(it.str))
	case itemZero:
		b.WriteString(".zero " + strconv.FormatInt(it.val, 10))
	}
	b.WriteByte('\n')
}

// symExpr prints sym+addend, or the addend alone if sym is "".
func symExpr(sym string, addend int64) string {
	switch {
	case sym == "":
		return strconv.FormatInt(addend, 10)
	case addend == 0:
		return sym
	case addend > 0:
		return sym + "+" + strconv.FormatInt(addend, 10)
	}
	return sym + strconv.FormatInt(addend, 10)
}
