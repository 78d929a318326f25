package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
)

// canonical section layout order; unknown sections follow in declaration
// order.
var sectionOrder = map[string]int{
	".init": 0, ".plt": 1, ".text": 2, ".fini": 3,
	".rodata": 4, ".data": 5, ".got": 6,
}

const (
	pltEntrySize = 24 // bytes per PLT slot (slot 0 is the resolver stub)
	gotSlotSize  = 8
)

// laOp is the opcode the la pseudo-instruction becomes: MovRI (10 bytes)
// in non-PIC modules, LeaPC (6 bytes) in PIC modules.
func (u *Unit) laOp() isa.Op {
	if u.PIC {
		return isa.OpLeaPC
	}
	return isa.OpMovRI
}

// size returns the number of bytes it occupies once laid out at it.addr.
func (u *Unit) size(it *item) uint64 {
	switch it.kind {
	case itemInstr, itemRef:
		return uint64(isa.EncodedSize(it.op))
	case itemLa:
		return uint64(isa.EncodedSize(u.laOp()))
	case itemQuad:
		return 8
	case itemLong:
		return 4
	case itemByte, itemAscii:
		return uint64(len(it.str))
	case itemAsciz:
		return uint64(len(it.str)) + 1
	case itemZero:
		return uint64(it.val)
	case itemAlign:
		return align(it.addr, uint64(it.val)) - it.addr
	case itemPLT:
		return uint64(pltEntrySize * (len(u.Imports) + 1))
	case itemGOT:
		return uint64(gotSlotSize * len(u.Imports))
	}
	return 0
}

// Link lays the unit out and encodes it as a JEF module. It changes
// nothing in the unit but the addresses layout gives its items, so a unit
// may be edited and linked again.
func (u *Unit) Link() (*obj.Module, error) {
	if u.Name == "" {
		return nil, fmt.Errorf("asm: missing .module directive")
	}
	base := u.Base
	if u.PIC {
		base = 0
	}

	// The imports get a synthesized PLT and GOT of their own.
	secs := make([]*Section, 0, len(u.sections)+2)
	for _, s := range u.sections {
		if s.name == ".plt" || s.name == ".got" {
			return nil, fmt.Errorf("asm: section %s is reserved for the import stubs", s.name)
		}
		secs = append(secs, s)
	}
	if len(u.Imports) > 0 {
		secs = append(secs,
			&Section{name: ".plt", flags: obj.SecExec, items: []item{{kind: itemPLT}}},
			&Section{name: ".got", flags: obj.SecWrite, items: []item{{kind: itemGOT}}})
	}
	stableSortSections(secs)

	// Pass 1: layout. Assign addresses to every item and collect symbols.
	// No item may pass the end of the address space, which also bounds
	// what pass 2 allocates.
	symAddr := map[string]uint64{}
	ends := make([]uint64, len(secs))
	pltBase, gotBase := uint64(0), uint64(0)
	addr := base
	for si, sec := range secs {
		addr = align(addr, 16)
		for i := range sec.items {
			it := &sec.items[i]
			it.addr = addr
			switch it.kind {
			case itemLabel:
				if _, dup := symAddr[it.str]; dup {
					return nil, &Error{Line: int(it.line),
						Msg: fmt.Sprintf("duplicate label %q", it.str)}
				}
				symAddr[it.str] = addr
			case itemPLT:
				pltBase = addr
			case itemGOT:
				gotBase = addr
			}
			next := addr + u.size(it)
			if next < addr || next > isa.LayoutAddrLimit {
				return nil, &Error{Line: int(it.line), Msg: fmt.Sprintf(
					"section %s passes the end of the address space at %#x", sec.name, isa.LayoutAddrLimit)}
			}
			addr = next
		}
		ends[si] = addr
	}

	imports := make([]obj.Import, len(u.Imports))
	importIdx := map[string]int{}
	for k, name := range u.Imports {
		imports[k] = obj.Import{
			Name: name,
			PLT:  pltBase + uint64(pltEntrySize*(k+1)),
			GOT:  gotBase + uint64(gotSlotSize*k),
		}
		importIdx[name] = k
	}

	// resolve maps a symbol reference to its link-time address; import
	// names resolve to their PLT stubs.
	resolve := func(sym string, it *item) (uint64, error) {
		if v, ok := symAddr[sym]; ok {
			return v, nil
		}
		if k, ok := importIdx[sym]; ok {
			return imports[k].PLT, nil
		}
		return 0, &Error{Line: int(it.line), Msg: fmt.Sprintf("undefined symbol %q", sym)}
	}

	// Pass 2: emit bytes.
	mod := &obj.Module{
		Name:     u.Name,
		Type:     u.Type,
		PIC:      u.PIC,
		SymLevel: u.Strip,
		Base:     base,
		Needed:   append([]string(nil), u.Needs...),
		Imports:  imports,
	}
	globals := make(map[string]bool, len(u.Globals))
	for _, g := range u.Globals {
		globals[g] = true
	}
	for si, sec := range secs {
		if len(sec.items) == 0 {
			continue
		}
		secAddr := sec.items[0].addr
		// Every item emits exactly its laid-out size, so the data is
		// allocated once, and alignment padding and .zero runs are the
		// allocation's zeros, stepped over to reach the next item.
		data := make([]byte, 0, ends[si]-secAddr)
		for i := range sec.items {
			it := &sec.items[i]
			data = data[:it.addr-secAddr]
			switch it.kind {
			case itemLabel:
				if it.str[0] != '.' {
					kind := obj.SymObject
					if sec.flags&obj.SecExec != 0 {
						kind = obj.SymFunc
					}
					mod.Symbols = append(mod.Symbols, obj.Symbol{
						Name: it.str, Addr: it.addr, Kind: kind,
						Exported: globals[it.str],
					})
				}
			case itemByte, itemAscii:
				data = append(data, it.str...)
			case itemAsciz:
				data = append(append(data, it.str...), 0)
			case itemPLT:
				data = emitPLT(data, pltBase, imports)
			case itemGOT:
				data = emitGOT(data, imports, mod)
			case itemQuad, itemLong:
				v := it.val
				if it.str != "" {
					s, err := resolve(it.str, it)
					if err != nil {
						return nil, err
					}
					v += int64(s)
					if u.PIC && it.kind == itemQuad {
						mod.Relocs = append(mod.Relocs, obj.Reloc{
							Kind: obj.RelRebase, Where: it.addr,
						})
					}
				}
				if it.kind == itemQuad {
					data = appendLE(data, uint64(v), 8)
				} else {
					data = appendLE(data, uint64(v), 4)
				}
			case itemInstr, itemRef, itemLa:
				in, err := u.instr(it, resolve)
				if err != nil {
					return nil, err
				}
				data = isa.Encode(data, &in)
			}
		}
		mod.Sections = append(mod.Sections, obj.Section{
			Name: sec.name, Addr: secAddr, Data: data[:ends[si]-secAddr], Flags: sec.flags,
		})
	}

	// Symbol sizes: distance to the next symbol in the same section, or to
	// section end.
	fillSymbolSizes(mod)

	if u.Entry != "" {
		e, ok := symAddr[u.Entry]
		if !ok {
			return nil, fmt.Errorf("asm: entry symbol %q undefined", u.Entry)
		}
		mod.Entry = e
	}
	if err := mod.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return mod, nil
}

// instr returns the instruction an instruction item encodes to at its
// laid-out address, with its symbolic operand resolved.
func (u *Unit) instr(it *item, resolve func(string, *item) (uint64, error)) (isa.Instr, error) {
	in := isa.Instr{Op: it.op, Rd: it.rd, Rb: it.rb, Ri: it.ri, Disp: it.disp,
		Imm: it.val, Addr: it.addr}
	if it.kind == itemLa {
		in.Op = u.laOp()
	}
	in.Size = isa.EncodedSize(in.Op)
	if it.kind == itemInstr {
		return in, nil
	}
	// val is the symbol's addend, not an immediate.
	in.Imm = 0
	target, err := resolve(it.str, it)
	if err != nil {
		return in, err
	}
	target += uint64(it.val)
	if in.Op == isa.OpMovRI { // la in a non-PIC module: the absolute address
		in.Imm = int64(target)
	} else {
		in.Disp = int32(int64(target) - int64(it.addr+uint64(in.Size)))
	}
	return in, nil
}

// emitPLT generates the PLT: slot 0 is the shared lazy-resolution stub that
// ends in `push r0; ret` — deliberately using a return instruction to enter
// the resolved function, reproducing the ld.so lazy-binding control-flow
// abnormality (§4.2.3). Slot k+1 belongs to import k:
//
//	ldpc r11, [got_k]   ; jump through GOT
//	jmpi r11
//	lazy_k: mov r11, k  ; first call lands here via the initial GOT value
//	jmp plt0
func emitPLT(data []byte, pltBase uint64, imports []obj.Import) []byte {
	emit := func(in isa.Instr, at uint64) uint64 {
		in.Addr = at
		in.Size = isa.EncodedSize(in.Op)
		data = isa.Encode(data, &in)
		return at + uint64(in.Size)
	}
	pad := func(at, until uint64) uint64 {
		for at < until {
			at = emit(isa.Instr{Op: isa.OpNop}, at)
		}
		return at
	}
	// Slot 0: resolver stub.
	at := pltBase
	at = emit(isa.Instr{Op: isa.OpTrap, Imm: isa.TrapResolve}, at)
	at = emit(isa.Instr{Op: isa.OpPush, Rd: isa.R0}, at)
	at = emit(isa.Instr{Op: isa.OpRet}, at)
	at = pad(at, pltBase+pltEntrySize)
	// Import slots.
	for k, im := range imports {
		entry := pltBase + uint64(pltEntrySize*(k+1))
		ldpcSize := uint64(isa.EncodedSize(isa.OpLdPC))
		at = emit(isa.Instr{Op: isa.OpLdPC, Rd: isa.R11,
			Disp: int32(int64(im.GOT) - int64(entry+ldpcSize))}, entry)
		at = emit(isa.Instr{Op: isa.OpJmpI, Rd: isa.R11}, at)
		// lazy stub at entry+8
		at = emit(isa.Instr{Op: isa.OpMovRI, Rd: isa.R11, Imm: int64(k)}, at)
		jmpSize := uint64(isa.EncodedSize(isa.OpJmp))
		at = emit(isa.Instr{Op: isa.OpJmp,
			Disp: int32(int64(pltBase) - int64(at+jmpSize))}, at)
		at = pad(at, entry+pltEntrySize)
	}
	return data
}

// emitGOT fills initial GOT values: the link-time address of each import's
// lazy stub (PLT slot + 8). Each slot also carries a RelGotFunc reloc naming
// the symbol, so eager loaders can bind directly and lazy loaders of PIC
// modules know to rebase.
func emitGOT(data []byte, imports []obj.Import, mod *obj.Module) []byte {
	for _, im := range imports {
		lazy := im.PLT + 8
		data = appendLE(data, lazy, 8)
		mod.Relocs = append(mod.Relocs, obj.Reloc{
			Kind: obj.RelGotFunc, Where: im.GOT, Sym: im.Name,
		})
	}
	return data
}

func appendLE(b []byte, v uint64, n int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func align(v, n uint64) uint64 { return (v + n - 1) &^ (n - 1) }

func stableSortSections(secs []*Section) {
	// insertion sort by canonical rank (stable, tiny input)
	rank := func(s *Section) int {
		if r, ok := sectionOrder[s.name]; ok {
			return r
		}
		return 100
	}
	for i := 1; i < len(secs); i++ {
		for j := i; j > 0 && rank(secs[j]) < rank(secs[j-1]); j-- {
			secs[j], secs[j-1] = secs[j-1], secs[j]
		}
	}
}

// fillSymbolSizes assigns each zero-sized symbol the distance to the next
// symbol in the same section (or the section end).
func fillSymbolSizes(mod *obj.Module) {
	for i := range mod.Symbols {
		s := &mod.Symbols[i]
		if s.Size != 0 {
			continue
		}
		sec := mod.SectionAt(s.Addr)
		if sec == nil {
			continue
		}
		end := sec.Addr + uint64(len(sec.Data))
		for j := range mod.Symbols {
			t := &mod.Symbols[j]
			if t.Addr > s.Addr && t.Addr < end && sec.Contains(t.Addr) {
				end = t.Addr
			}
		}
		s.Size = end - s.Addr
	}
}
