// Package cfg implements static disassembly and control-flow-graph recovery
// for JEF modules — the core-layer "disassembly & control flow" stage of
// Janitizer's static analyzer (Fig. 2a).
//
// Unlike Janus, which builds control flow only for .text and only for code
// it deems interesting, recovery here covers every executable section
// (.init, .plt, .text, .fini) and every block reachable from any seed:
// the entry point, function symbols, exported symbols, PLT stubs, section
// starts, data-embedded code pointers and discovered jump tables (§3.3.1).
//
// Recovery is deliberately *not* guaranteed complete: targets of indirect
// control transfers that are computed arithmetically (rather than loaded
// from a recognisable jump table) are undiscoverable, exactly the residue
// that Janitizer's dynamic fallback exists to cover (Fig. 14).
package cfg

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/obj"
)

// BasicBlock is a maximal straight-line instruction run at link-time
// addresses. A block ends at the first control-transfer instruction or at
// the start of another block (fallthrough).
type BasicBlock struct {
	Start  uint64
	Instrs []isa.Instr
	// Succs are the statically known successor block addresses: branch
	// targets, fallthroughs, and call fallthroughs. Call/jump-table
	// targets discovered statically are included.
	Succs []uint64
	// HasIndirect records that the terminator is an indirect CTI whose
	// full target set is unknown statically.
	HasIndirect bool
	// Fn is the containing function (set during partitioning).
	Fn *Function
}

// End returns the address one past the last instruction.
func (b *BasicBlock) End() uint64 {
	last := &b.Instrs[len(b.Instrs)-1]
	return last.Addr + uint64(last.Size)
}

// Terminator returns the final instruction of the block.
func (b *BasicBlock) Terminator() *isa.Instr { return &b.Instrs[len(b.Instrs)-1] }

// Function groups blocks under a recognised function entry.
type Function struct {
	Name   string
	Entry  uint64
	End    uint64 // exclusive upper bound of the function's address range
	Blocks []*BasicBlock
}

// JumpTable describes a discovered indirect-jump dispatch table.
type JumpTable struct {
	JmpAddr   uint64   // address of the jmpi instruction
	TableAddr uint64   // link-time address of the table data
	Targets   []uint64 // link-time target addresses
}

// CodePtr is a data word that points into code.
type CodePtr struct {
	Addr  uint64 // link-time address of the word
	Value uint64 // the word: an address in an executable section
}

// Graph is the recovered control-flow graph of one module.
type Graph struct {
	Module *obj.Module
	// Blocks maps block start addresses to blocks.
	Blocks map[uint64]*BasicBlock
	// Funcs are the recognised functions, sorted by entry address.
	Funcs []*Function
	// JumpTables maps jmpi instruction addresses to their tables.
	JumpTables map[uint64]*JumpTable
	// CallTargets maps call-site instruction addresses to their direct
	// targets (for call-graph construction).
	CallTargets map[uint64]uint64
	// CodePtrs are the aligned 8-byte words in non-executable sections
	// whose values lie in executable sections, in section and address
	// order: jump tables and function-pointer tables. Build seeds its
	// traversal from them; vsa, rewrite and jlint read them as candidate
	// entries.
	CodePtrs []CodePtr
	// boundaries is the set of recovered instruction addresses.
	boundaries map[uint64]bool
}

// IsInstrBoundary reports whether addr is the address of a recovered
// instruction.
func (g *Graph) IsInstrBoundary(addr uint64) bool { return g.boundaries[addr] }

// NumInstrs returns the total number of recovered instructions.
func (g *Graph) NumInstrs() int { return len(g.boundaries) }

// BlockAt returns the block containing addr (not necessarily starting at
// it), or nil.
func (g *Graph) BlockAt(addr uint64) *BasicBlock {
	if b, ok := g.Blocks[addr]; ok {
		return b
	}
	for _, b := range g.Blocks {
		if addr >= b.Start && addr < b.End() {
			return b
		}
	}
	return nil
}

// FuncAt returns the function whose range contains addr, or nil.
func (g *Graph) FuncAt(addr uint64) *Function {
	i := sort.Search(len(g.Funcs), func(i int) bool { return g.Funcs[i].Entry > addr })
	if i == 0 {
		return nil
	}
	f := g.Funcs[i-1]
	if addr < f.End {
		return f
	}
	return nil
}

// SortedBlocks returns all blocks in address order.
func (g *Graph) SortedBlocks() []*BasicBlock {
	out := make([]*BasicBlock, 0, len(g.Blocks))
	for _, b := range g.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Build recovers the control-flow graph of mod. extraSeeds may supply
// additional known code addresses (e.g. from profiles).
func Build(mod *obj.Module, extraSeeds ...uint64) (*Graph, error) {
	g := &Graph{
		Module:      mod,
		Blocks:      map[uint64]*BasicBlock{},
		JumpTables:  map[uint64]*JumpTable{},
		CallTargets: map[uint64]uint64{},
		boundaries:  map[uint64]bool{},
	}
	b := &builder{g: g, mod: mod}
	b.run(extraSeeds)
	g.partitionFunctions()
	return g, nil
}

type builder struct {
	g   *Graph
	mod *obj.Module
	// worklist of candidate block starts
	work []uint64
}

func (b *builder) enqueue(addr uint64) {
	if b.inExec(addr) {
		b.work = append(b.work, addr)
	}
}

func (b *builder) inExec(addr uint64) bool {
	sec := b.mod.SectionAt(addr)
	return sec != nil && sec.Executable()
}

// run performs recursive-traversal disassembly.
func (b *builder) run(extraSeeds []uint64) {
	mod := b.mod
	// Seeds: entry, all visible function symbols, every executable
	// section start (.init/.fini/.plt bodies), PLT stubs, extras.
	if mod.Entry != 0 {
		b.enqueue(mod.Entry)
	}
	for _, s := range mod.FuncSymbols() {
		b.enqueue(s.Addr)
	}
	for _, s := range mod.ExportedSymbols() {
		if s.Kind == obj.SymFunc {
			b.enqueue(s.Addr)
		}
	}
	for _, sec := range mod.ExecSections() {
		b.enqueue(sec.Addr)
	}
	for i := range mod.Imports {
		b.enqueue(mod.Imports[i].PLT)
		b.enqueue(mod.Imports[i].PLT + 8) // lazy stub
	}
	for _, s := range extraSeeds {
		b.enqueue(s)
	}
	// Data-embedded code pointers (relocated quads and plain quads that
	// land in executable sections) are additional seeds: jump tables and
	// callback tables live in .rodata/.data.
	b.scanDataCodePointers()
	for _, p := range b.g.CodePtrs {
		b.enqueue(p.Value)
	}

	for len(b.work) > 0 {
		addr := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.explore(addr)
	}
}

// scanDataCodePointers fills Graph.CodePtrs. This is the seed-level
// analogue of symbolization. (The byte-granular sliding-window scan used by
// the CFI policy lives in the jcfi package; here alignment keeps seeds
// high-confidence.)
func (b *builder) scanDataCodePointers() {
	for i := range b.mod.Sections {
		sec := &b.mod.Sections[i]
		if sec.Executable() {
			continue
		}
		for off := 0; off+8 <= len(sec.Data); off += 8 {
			v := binary.LittleEndian.Uint64(sec.Data[off:])
			if b.inExec(v) {
				b.g.CodePtrs = append(b.g.CodePtrs, CodePtr{sec.Addr + uint64(off), v})
			}
		}
	}
}

// explore decodes the block starting at addr, splitting existing blocks if
// addr lands inside one at an instruction boundary.
func (b *builder) explore(addr uint64) {
	g := b.g
	if _, ok := g.Blocks[addr]; ok {
		return
	}
	// Inside an existing block at an instruction boundary? Split.
	if g.boundaries[addr] {
		for start, blk := range g.Blocks {
			if addr > start && addr < blk.End() {
				b.split(blk, addr)
				return
			}
		}
		return
	}

	sec := b.mod.SectionAt(addr)
	if sec == nil || !sec.Executable() {
		return
	}
	blk := &BasicBlock{Start: addr}
	pc := addr
	for {
		off := pc - sec.Addr
		if off >= uint64(len(sec.Data)) {
			break // ran off the section; tolerate (undiscovered tail)
		}
		in, err := isa.Decode(sec.Data[off:], pc)
		if err != nil {
			break // undecodable: stop; sound recovery never guesses
		}
		blk.Instrs = append(blk.Instrs, in)
		g.boundaries[pc] = true
		pc += uint64(in.Size)
		if in.IsCTI() {
			b.finishBlock(blk, &in)
			break
		}
		if in.Op == isa.OpSyscall || in.Op == isa.OpTrap {
			// System instructions end blocks so static block boundaries
			// align with the dynamic modifier's block builder.
			blk.Succs = append(blk.Succs, pc)
			break
		}
		if _, isLeader := g.Blocks[pc]; isLeader {
			// Falls through into an existing block.
			blk.Succs = append(blk.Succs, pc)
			break
		}
	}
	if len(blk.Instrs) == 0 {
		return
	}
	g.Blocks[addr] = blk
	for _, s := range blk.Succs {
		b.enqueue(s)
	}
}

// finishBlock records successor edges for a block ending in CTI `in`.
func (b *builder) finishBlock(blk *BasicBlock, in *isa.Instr) {
	fall := in.Addr + uint64(in.Size)
	switch in.Op {
	case isa.OpJmp:
		blk.Succs = append(blk.Succs, in.Target())
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJae:
		blk.Succs = append(blk.Succs, in.Target(), fall)
	case isa.OpCall:
		b.g.CallTargets[in.Addr] = in.Target()
		blk.Succs = append(blk.Succs, in.Target(), fall)
	case isa.OpCallI:
		blk.HasIndirect = true
		blk.Succs = append(blk.Succs, fall)
	case isa.OpJmpI:
		blk.HasIndirect = true
		if jt := b.matchJumpTable(blk, in); jt != nil {
			b.g.JumpTables[in.Addr] = jt
			blk.Succs = append(blk.Succs, jt.Targets...)
		}
	case isa.OpRet, isa.OpHlt:
		// no static successors
	}
}

// split cuts blk at addr (an instruction boundary strictly inside blk).
func (b *builder) split(blk *BasicBlock, addr uint64) {
	g := b.g
	idx := -1
	for i := range blk.Instrs {
		if blk.Instrs[i].Addr == addr {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return
	}
	tail := &BasicBlock{
		Start:       addr,
		Instrs:      blk.Instrs[idx:],
		Succs:       blk.Succs,
		HasIndirect: blk.HasIndirect,
	}
	blk.Instrs = blk.Instrs[:idx]
	blk.Succs = []uint64{addr}
	blk.HasIndirect = false
	g.Blocks[addr] = tail
}

// matchJumpTable pattern-matches the compiler's jump-table dispatch idiom
// inside blk, ending at the jmpi:
//
//	cmp  rI, N        ; bound check (possibly in a predecessor block)
//	jae  default
//	...
//	mov  rT, table    ; or leapc rT, table
//	ldxq rD, [rT+rI*8]
//	jmpi rD
//
// and loads the table entries from module data. Entries must land at
// recovered-or-plausible code addresses in executable sections.
func (b *builder) matchJumpTable(blk *BasicBlock, jmp *isa.Instr) *JumpTable {
	ins := blk.Instrs
	n := len(ins)
	if n < 2 {
		return nil
	}
	// Find the load producing the jump register.
	var load *isa.Instr
	for i := n - 2; i >= 0; i-- {
		in := &ins[i]
		if in.Op == isa.OpLdXQ && in.Rd == jmp.Rd {
			load = in
			break
		}
		// Another def of the jump register kills the pattern.
		for _, d := range in.RegDefs(nil) {
			if d == jmp.Rd {
				return nil
			}
		}
	}
	if load == nil || load.Disp != 0 {
		return nil
	}
	// Find the table base: a la/leapc/movri of load.Rb before the load.
	var tableAddr uint64
	found := false
	for i := n - 2; i >= 0; i-- {
		in := &ins[i]
		if in.Addr >= load.Addr {
			continue
		}
		if in.Rd == load.Rb {
			switch in.Op {
			case isa.OpMovRI:
				tableAddr = uint64(in.Imm)
				found = true
			case isa.OpLeaPC:
				tableAddr = in.Addr + uint64(in.Size) + uint64(int64(in.Disp))
				found = true
			}
			break
		}
	}
	if !found {
		return nil
	}
	// Find the bound: cmp load.Ri, N in this block (bound checks placed
	// in predecessor blocks limit discovery; we then fall back to
	// validity-bounded reading).
	bound := -1
	for i := n - 2; i >= 0; i-- {
		in := &ins[i]
		if in.Op == isa.OpCmpRI && in.Rd == load.Ri {
			bound = int(in.Imm)
			break
		}
	}
	sec := b.mod.SectionAt(tableAddr)
	if sec == nil || sec.Executable() {
		return nil
	}
	maxEntries := 1024
	if bound > 0 && bound <= maxEntries {
		maxEntries = bound
	}
	jt := &JumpTable{JmpAddr: jmp.Addr, TableAddr: tableAddr}
	for k := 0; k < maxEntries; k++ {
		off := tableAddr + uint64(k)*8 - sec.Addr
		if off+8 > uint64(len(sec.Data)) {
			break
		}
		v := binary.LittleEndian.Uint64(sec.Data[off:])
		if !b.inExec(v) {
			if bound <= 0 {
				break // validity-bounded mode: stop at first non-code word
			}
			return nil // declared bound contains junk: reject the match
		}
		jt.Targets = append(jt.Targets, v)
	}
	if len(jt.Targets) == 0 {
		return nil
	}
	return jt
}

// partitionFunctions assigns blocks to functions. Function entries come from
// visible function symbols, direct call targets, the module entry and PLT
// stubs; each block belongs to the nearest preceding entry.
func (g *Graph) partitionFunctions() {
	mod := g.Module
	entrySet := map[uint64]string{}
	add := func(addr uint64, name string) {
		if _, ok := g.Blocks[addr]; !ok {
			return // only real recovered code starts functions
		}
		if old, ok := entrySet[addr]; !ok || old == "" {
			entrySet[addr] = name
		}
	}
	for _, s := range mod.FuncSymbols() {
		add(s.Addr, s.Name)
	}
	if mod.Entry != 0 {
		add(mod.Entry, "_entry")
	}
	for _, tgt := range g.CallTargets {
		add(tgt, "")
	}
	for i := range mod.Imports {
		add(mod.Imports[i].PLT, mod.Imports[i].Name+"@plt")
	}
	// Also treat each executable section start with code as an entry
	// (covers .init/.fini bodies in stripped modules).
	for _, sec := range mod.ExecSections() {
		add(sec.Addr, "")
	}

	entries := make([]uint64, 0, len(entrySet))
	for a := range entrySet {
		entries = append(entries, a)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })

	g.Funcs = g.Funcs[:0]
	for i, e := range entries {
		name := entrySet[e]
		if name == "" {
			name = fmt.Sprintf("func_%x", e)
		}
		end := ^uint64(0)
		if i+1 < len(entries) {
			end = entries[i+1]
		}
		// Clamp to the end of the containing section.
		if sec := mod.SectionAt(e); sec != nil {
			secEnd := sec.Addr + uint64(len(sec.Data))
			if end > secEnd {
				end = secEnd
			}
		}
		g.Funcs = append(g.Funcs, &Function{Name: name, Entry: e, End: end})
	}
	for _, blk := range g.Blocks {
		if f := g.FuncAt(blk.Start); f != nil {
			f.Blocks = append(f.Blocks, blk)
			blk.Fn = f
		}
	}
	for _, f := range g.Funcs {
		sort.Slice(f.Blocks, func(i, j int) bool {
			return f.Blocks[i].Start < f.Blocks[j].Start
		})
	}
}
