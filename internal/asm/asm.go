// Package asm implements jas, the JVA assembler. Its interface is one
// in-memory form of a module, the Unit: header directives plus the items
// (labels, instructions, data) of each section. Two front ends fill a Unit:
// Assemble parses textual assembly into one, and jcc appends its labels,
// instructions and data to one directly through the Section methods. Link
// lays a Unit out and encodes it as a JEF module; Text prints it as
// assembly that assembles to the same module.
//
// Source structure:
//
//	.module name          module soname
//	.type exec|shared     module type (default exec)
//	.pic                  position-independent (default position-dependent)
//	.base 0x400000        link-time base for non-PIC modules
//	.entry _start         entry symbol (executables)
//	.needs libj.jef       declared dependency (ldd-visible)
//	.import malloc        imported function: synthesizes a PLT stub + GOT slot
//	.global name          export symbol `name`
//	.strip full|exports|stripped   symbol table level (default full)
//	.section .text        switch section (.plt and .got are reserved for
//	                      the synthesized import stubs)
//
//	label:                define a symbol (labels starting with '.' are
//	                      assembly-local and never enter the symbol table)
//	mnemonic operands     one instruction (see package isa)
//	.quad v | sym | sym+off    8-byte datum (symbolic values relocated in PIC)
//	.long v | sym              4-byte datum
//	.byte v, v, ...            bytes
//	.ascii "..." / .asciz "..."
//	.zero n                    n zero bytes
//	.align n                   pad with zeros to an n-byte boundary
//
// Pseudo-instruction: `la rd, sym` materialises a symbol address — a 64-bit
// absolute immediate in non-PIC modules, a PC-relative LeaPC in PIC modules.
// Direct calls/jumps to imported functions are routed through their PLT stub.
package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
)

// Error is an assembly diagnostic with source position. Line is 0 for
// items of a unit built in memory.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line == 0 {
		return "asm: " + e.Msg
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// Unit is one module in the assembler's in-memory form. The exported
// fields are its header directives.
type Unit struct {
	Name    string          // .module (required)
	Type    obj.ModuleType  // .type
	PIC     bool            // .pic
	Base    uint64          // .base: link base of a non-PIC module
	Entry   string          // .entry
	Strip   obj.SymTabLevel // .strip
	Needs   []string        // .needs, in order
	Imports []string        // .import, in order: the PLT and GOT slot order
	Globals []string        // .global, in order

	sections []*Section // in declaration order
	line     int        // source line new items are stamped with
}

// NewUnit returns an empty unit with the defaults of a source without
// directives: a position-dependent executable at LayoutExecBase with a
// full symbol table.
func NewUnit() *Unit {
	return &Unit{Type: obj.Exec, Base: isa.LayoutExecBase, Strip: obj.SymFull}
}

// Section returns the section called name, declaring it on first use.
func (u *Unit) Section(name string) *Section {
	for _, s := range u.sections {
		if s.name == name {
			return s
		}
	}
	s := &Section{name: name, flags: sectionFlags(name), u: u}
	u.sections = append(u.sections, s)
	return s
}

func sectionFlags(name string) uint8 {
	switch name {
	case ".text", ".init", ".fini", ".plt":
		return obj.SecExec
	case ".data", ".bss", ".got":
		return obj.SecWrite
	}
	return 0
}

// Section is one section of a Unit. Its methods append items in order.
type Section struct {
	name  string
	flags uint8
	items []item
	u     *Unit
}

// itemKind discriminates the items of a section.
type itemKind uint8

const (
	itemInstr itemKind = iota // instruction without a symbolic operand
	itemRef                   // branch, call, ldpc or leapc reaching str+val
	itemLa                    // la rd, str+val
	itemLabel                 // label str
	itemQuad                  // 8-byte datum str+val (val alone if str is "")
	itemLong                  // 4-byte datum str+val
	itemByte                  // .byte: the bytes of str
	itemAscii                 // .ascii: the bytes of str
	itemAsciz                 // .asciz: the bytes of str, then a NUL
	itemZero                  // .zero: val zero bytes
	itemAlign                 // .align: zero padding to a val-byte boundary
	itemPLT                   // the PLT Link synthesizes for the imports
	itemGOT                   // the GOT Link synthesizes for the imports
)

// item is one element of a section. A section holds one per source line,
// so the item is kept small: appending it is most of what building a unit
// costs.
type item struct {
	kind       itemKind
	op         isa.Op       // instructions: opcode (la: chosen by Link)
	rd, rb, ri isa.Register // instructions: register operands
	disp       int32        // itemInstr: displacement
	line       int32        // source line, for diagnostics
	val        int64        // immediate, addend, datum, count or boundary
	addr       uint64       // assigned by Link's layout
	str        string       // label, referenced symbol, or data bytes
}

func (s *Section) add(it item) {
	it.line = int32(s.u.line)
	s.items = append(s.items, it)
}

// Len returns the number of items in the section: the index the next
// appended item gets.
func (s *Section) Len() int { return len(s.items) }

// Delete removes the items at the ascending indices idx.
func (s *Section) Delete(idx []int) {
	kept, next := s.items[:0], 0
	for i := range s.items {
		if next < len(idx) && idx[next] == i {
			next++
			continue
		}
		kept = append(kept, s.items[i])
	}
	s.items = kept
}

// Label defines the symbol name at the current position.
func (s *Section) Label(name string) { s.add(item{kind: itemLabel, str: name}) }

// Instr appends an instruction without a symbolic operand.
func (s *Section) Instr(in isa.Instr) {
	s.add(item{kind: itemInstr, op: in.Op, rd: in.Rd, rb: in.Rb, ri: in.Ri,
		disp: in.Disp, val: in.Imm})
}

// Ref appends an instruction whose displacement reaches sym+addend: a
// direct branch or call (rd unused), or an ldpc or leapc into rd.
func (s *Section) Ref(op isa.Op, rd isa.Register, sym string, addend int64) {
	s.add(item{kind: itemRef, op: op, rd: rd, str: sym, val: addend})
}

// La appends the la pseudo-instruction: rd = the address of sym+addend.
func (s *Section) La(rd isa.Register, sym string, addend int64) {
	s.add(item{kind: itemLa, rd: rd, str: sym, val: addend})
}

// Quad appends an 8-byte datum: sym+val, or val alone if sym is "".
func (s *Section) Quad(sym string, val int64) { s.add(item{kind: itemQuad, str: sym, val: val}) }

// Long appends a 4-byte datum: sym+val, or val alone if sym is "".
func (s *Section) Long(sym string, val int64) { s.add(item{kind: itemLong, str: sym, val: val}) }

// Bytes appends raw bytes (.byte).
func (s *Section) Bytes(b []byte) { s.add(item{kind: itemByte, str: string(b)}) }

// Ascii appends the bytes of str (.ascii).
func (s *Section) Ascii(str string) { s.add(item{kind: itemAscii, str: str}) }

// Asciz appends the bytes of str and a terminating NUL (.asciz).
func (s *Section) Asciz(str string) { s.add(item{kind: itemAsciz, str: str}) }

// Zero appends n zero bytes.
func (s *Section) Zero(n int64) { s.add(item{kind: itemZero, val: n}) }

// Align pads with zeros to an n-byte boundary; n is a power of two.
func (s *Section) Align(n int64) { s.add(item{kind: itemAlign, val: n}) }
