package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/obj"
)

// Apply bakes a rewrite plan into a JEF module, Zipr-style: every function
// the plan provably covers is copied — instrumentation fragments inlined
// around each anchor — into a fresh `.jrw` section, and the original code
// is pinned in place with 5-byte trampolines at every address the rest of
// the program may still transfer to (function entries and proven
// jump-table targets). Original bytes outside trampoline windows are left
// untouched, so any statically-invisible entry into a covered function
// still executes correct (merely uninstrumented) application code.
//
// Applicability is proof-gated per function: a function is rewritten only
// when the static CFG fully accounts for it — every block analysed, no
// unproven indirect jumps, no statically-visible entries into its interior
// — and refused otherwise, with the refusal reason recorded in the
// manifest so the hybrid backend knows to leave it to the dynamic
// modifier. Refusing is always sound; rewriting unsoundly never is.
type Rewritten struct {
	Module   *obj.Module
	Manifest *Manifest
}

// Manifest records what Apply did, in link-time addresses: consumers
// rebase by the module's actual load base (after verifying it matches the
// plan's assumption).
type Manifest struct {
	// Module, AssumedBase and ModuleID echo the plan's placement
	// assumption; runners must refuse to use the rewritten module if the
	// loader assigns a different base or load order.
	Module      string
	AssumedBase uint64
	ModuleID    int32
	// CopyLo/CopyHi bound the `.jrw` section (link addresses).
	CopyLo, CopyHi uint64
	// Alias maps every covered block's original start to its copy.
	Alias map[uint64]uint64
	// Pinned lists original addresses overwritten with trampolines.
	Pinned []uint64
	// TrapOrigin maps each copied trap's link address to the application
	// address the trap should report (plan fragments stamp traps with
	// their anchor; copied application traps map to themselves). Values
	// are runtime addresses under AssumedBase.
	TrapOrigin map[uint64]uint64
	// Covered and Refused partition the module's functions.
	Covered []CoveredFunc
	Refused []Refusal
	// Anchors counts instrumentation entries materialised into copies.
	Anchors int
}

// CoveredFunc is one statically rewritten function (link addresses).
type CoveredFunc struct {
	Name       string
	Entry, End uint64
}

// Refusal is one function the applier declined to rewrite and why.
type Refusal struct {
	Fn     string
	Entry  uint64
	Reason string
}

// trampolineLen is the encoded size of the pin-site `jmp disp32`.
const trampolineLen = uint64(5)

// copyAlign aligns the `.jrw` section past the module extent.
const copyAlign = uint64(0x1000)

// Apply rewrites mod according to plan. The returned module replaces the
// original under the same name; mod itself is not modified.
func Apply(mod *obj.Module, plan *Plan) (*Rewritten, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Module != mod.Name {
		return nil, fmt.Errorf("rewrite: plan is for %q, module is %q", plan.Module, mod.Name)
	}
	if plan.PIC != mod.PIC {
		return nil, fmt.Errorf("rewrite: plan PIC flag disagrees with module %q", mod.Name)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		return nil, fmt.Errorf("rewrite: cfg %s: %w", mod.Name, err)
	}
	ap := &applier{mod: mod, plan: plan, g: g, delta: plan.AssumedBase}
	return ap.run()
}

type applier struct {
	mod   *obj.Module
	plan  *Plan
	g     *cfg.Graph
	delta uint64 // runtime = link + delta under the plan's assumption

	refused  []Refusal
	interior map[*cfg.Function]bool
	jtPins   map[*cfg.Function][]uint64
}

// entryAt returns the plan entry anchored at link address a, or nil.
func (ap *applier) entryAt(a uint64) *Entry { return ap.plan.EntryAt(a + ap.delta) }

func (ap *applier) run() (*Rewritten, error) {
	ap.findInteriorEntries()
	ap.collectJumpTablePins()

	var accepted []*cfg.Function
	for _, f := range ap.g.Funcs {
		if reason := ap.gate(f); reason != "" {
			ap.refused = append(ap.refused, Refusal{Fn: f.Name, Entry: f.Entry, Reason: reason})
			continue
		}
		accepted = append(accepted, f)
	}

	// Layout and encode; a displacement overflow refuses the offending
	// function and retries (practically never loops more than once).
	for {
		man, code, relocs, failed, reason, err := ap.emit(accepted)
		if err != nil {
			return nil, err
		}
		if failed == nil {
			return ap.assemble(man, code, relocs)
		}
		ap.refused = append(ap.refused, Refusal{Fn: failed.Name, Entry: failed.Entry, Reason: reason})
		kept := accepted[:0]
		for _, f := range accepted {
			if f != failed {
				kept = append(kept, f)
			}
		}
		accepted = kept
	}
}

// findInteriorEntries marks functions with statically-visible control
// transfers into their interior: direct edges from other functions and
// data-embedded code pointers that bypass the entry. Such functions are
// genuinely multi-entry and cannot be soundly redirected through a single
// entry trampoline, so they are refused.
func (ap *applier) findInteriorEntries() {
	ap.interior = map[*cfg.Function]bool{}
	for _, b := range ap.g.Blocks {
		for _, s := range b.Succs {
			sf := ap.g.FuncAt(s)
			if sf != nil && sf != b.Fn && s != sf.Entry {
				ap.interior[sf] = true
			}
		}
	}
	// Aligned code pointers in data sections (the CFG builder's seeds):
	// candidate dynamic entries.
	for _, p := range ap.g.CodePtrs {
		if vf := ap.g.FuncAt(p.Value); vf != nil && p.Value != vf.Entry {
			ap.interior[vf] = true
		}
	}
}

// collectJumpTablePins maps each function to the proven jump-table targets
// inside it. Covered functions keep those addresses pinned: the copied
// jmpi still reads the original table, so its original-address targets
// must bounce into the copy.
func (ap *applier) collectJumpTablePins() {
	ap.jtPins = map[*cfg.Function][]uint64{}
	for _, jt := range ap.g.JumpTables {
		for _, t := range jt.Targets {
			if tf := ap.g.FuncAt(t); tf != nil {
				ap.jtPins[tf] = append(ap.jtPins[tf], t)
			}
		}
	}
	for f := range ap.jtPins {
		ap.jtPins[f] = sortedUniq(ap.jtPins[f])
	}
}

// fallsThrough reports whether execution can continue past op at the next
// sequential address (conditional branches, calls, system instructions and
// plain straight-line ops all do; only unconditional transfers do not).
func fallsThrough(op isa.Op) bool {
	switch op {
	case isa.OpJmp, isa.OpJmpI, isa.OpRet, isa.OpHlt:
		return false
	}
	return true
}

// gate decides whether f can be soundly rewritten; it returns the refusal
// reason, or "" to accept.
func (ap *applier) gate(f *cfg.Function) string {
	if sec := ap.mod.SectionAt(f.Entry); sec != nil && sec.Name == ".plt" {
		return "plt stub"
	}
	if ap.interior[f] {
		return "statically-visible interior entry"
	}
	if len(f.Blocks) == 0 || ap.g.Blocks[f.Entry] == nil {
		return "entry is not a discovered block"
	}
	for i, b := range f.Blocks {
		if !ap.plan.HasBlock(b.Start + ap.delta) {
			return "block outside the plan's static hit set"
		}
		if i > 0 && b.Start < f.Blocks[i-1].End() {
			return "overlapping blocks"
		}
		term := b.Terminator()
		if fallsThrough(term.Op) {
			if i == len(f.Blocks)-1 {
				return "falls through past the last block"
			}
			if f.Blocks[i+1].Start != b.End() {
				return "undiscovered code after a fall-through block"
			}
		}
		if term.Op == isa.OpJmpI && ap.g.JumpTables[term.Addr] == nil {
			return "unproven indirect jump"
		}
		for j := range b.Instrs {
			if reason := ap.gateAnchor(&b.Instrs[j]); reason != "" {
				return reason
			}
		}
	}
	for _, pin := range ap.pins(f) {
		if ap.g.Blocks[pin] == nil || ap.g.FuncAt(pin) != f {
			return "pinned target is not a block of this function"
		}
		if pin+trampolineLen > f.End {
			return "no room for an entry trampoline"
		}
		for a := pin + 1; a < pin+trampolineLen; a++ {
			if ap.g.Blocks[a] != nil {
				return "trampoline would overwrite a branch target"
			}
		}
	}
	for _, r := range ap.mod.Relocs {
		if r.Where < f.End && r.Where+8 > f.Entry {
			return "relocation inside the code range"
		}
	}
	return ""
}

// gateAnchor checks that the plan entry (if any) at instruction in can be
// materialised ahead of time.
func (ap *applier) gateAnchor(in *isa.Instr) string {
	e := ap.entryAt(in.Addr)
	if e == nil {
		return ""
	}
	if e.AnchorOp != uint8(in.Op) {
		return "plan anchor does not match the decoded instruction"
	}
	if len(e.After) > 0 && in.IsCTI() {
		return "instrumentation after a control transfer"
	}
	for _, frag := range [][]MetaInstr{e.Before, e.After} {
		for i := range frag {
			mi := &frag[i]
			op := isa.Op(mi.Op)
			switch op {
			case isa.OpLdPC, isa.OpLeaPC:
				return "pc-relative meta instruction"
			}
			min := isa.Instr{Op: op}
			if min.IsCTI() {
				if op != isa.OpJmp && !min.IsCondBranch() {
					return "unsupported meta control transfer"
				}
				if mi.JumpTo < 0 {
					return "meta control transfer with application semantics"
				}
			}
		}
	}
	return ""
}

// pins returns the original addresses of f that must stay executable after
// rewriting: the entry plus every proven jump-table target inside f.
func (ap *applier) pins(f *cfg.Function) []uint64 {
	return sortedUniq(append([]uint64{f.Entry}, ap.jtPins[f]...))
}

// blockCopySize returns the encoded size of b's copy: fragments plus the
// application instructions themselves.
func (ap *applier) blockCopySize(b *cfg.BasicBlock) uint64 {
	n := uint64(0)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if e := ap.entryAt(in.Addr); e != nil {
			for j := range e.Before {
				n += uint64(isa.EncodedSize(isa.Op(e.Before[j].Op)))
			}
			for j := range e.After {
				n += uint64(isa.EncodedSize(isa.Op(e.After[j].Op)))
			}
		}
		n += uint64(in.Size)
	}
	return n
}

// emit lays out and encodes the copies for the accepted functions. On a
// displacement overflow it reports the offending function so the caller
// can refuse it and retry; otherwise it returns the manifest, the `.jrw`
// code bytes and the relocations the copies need.
func (ap *applier) emit(accepted []*cfg.Function) (*Manifest, []byte, []obj.Reloc, *cfg.Function, string, error) {
	lo, span := ap.mod.Extent()
	copyBase := (lo + span + copyAlign - 1) &^ (copyAlign - 1)

	man := &Manifest{
		Module:      ap.mod.Name,
		AssumedBase: ap.plan.AssumedBase,
		ModuleID:    ap.plan.ModuleID,
		CopyLo:      copyBase,
		Alias:       map[uint64]uint64{},
		TrapOrigin:  map[uint64]uint64{},
	}

	// Pass A: assign copy addresses to every block.
	cursor := copyBase
	for _, f := range accepted {
		for _, b := range f.Blocks {
			man.Alias[b.Start] = cursor
			cursor += ap.blockCopySize(b)
		}
	}
	man.CopyHi = cursor

	// Pass B: encode.
	var code []byte
	var relocs []obj.Reloc
	at := func() uint64 { return copyBase + uint64(len(code)) }
	for _, f := range accepted {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				e := ap.entryAt(in.Addr)
				appAddr := at()
				if e != nil {
					appAddr += fragSize(e.Before)
				}
				if e != nil {
					frag, rl, err := ap.encodeFrag(e.Before, at(), appAddr, in, man)
					if err != nil {
						return nil, nil, nil, f, err.Error(), nil
					}
					code = append(code, frag...)
					relocs = append(relocs, rl...)
					man.Anchors++
				}
				app, err := ap.encodeApp(in, at(), man)
				if err != nil {
					return nil, nil, nil, f, err.Error(), nil
				}
				code = append(code, app...)
				if e != nil {
					frag, rl, err := ap.encodeFrag(e.After, at(), appAddr, in, man)
					if err != nil {
						return nil, nil, nil, f, err.Error(), nil
					}
					code = append(code, frag...)
					relocs = append(relocs, rl...)
				}
			}
		}
		man.Covered = append(man.Covered, CoveredFunc{Name: f.Name, Entry: f.Entry, End: f.End})
	}
	if at() != man.CopyHi {
		return nil, nil, nil, nil, "", fmt.Errorf(
			"rewrite: internal error: sized %#x but encoded %#x", man.CopyHi, at())
	}
	man.Refused = append([]Refusal(nil), ap.refused...)
	sort.Slice(man.Refused, func(i, j int) bool { return man.Refused[i].Entry < man.Refused[j].Entry })
	for _, f := range accepted {
		man.Pinned = append(man.Pinned, ap.pins(f)...)
	}
	man.Pinned = sortedUniq(man.Pinned)
	return man, code, relocs, nil, "", nil
}

func fragSize(frag []MetaInstr) uint64 {
	n := uint64(0)
	for i := range frag {
		n += uint64(isa.EncodedSize(isa.Op(frag[i].Op)))
	}
	return n
}

// encodeFrag encodes one fragment starting at addr. appAddr is the copy
// address of the anchor's application instruction (return-address
// immediates are recomputed against it); in is the anchor.
func (ap *applier) encodeFrag(frag []MetaInstr, addr, appAddr uint64,
	in *isa.Instr, man *Manifest) ([]byte, []obj.Reloc, error) {

	// Fragment item addresses, plus the address just past the fragment
	// (JumpTo == len(frag) falls through to it).
	addrs := make([]uint64, len(frag)+1)
	a := addr
	for i := range frag {
		addrs[i] = a
		a += uint64(isa.EncodedSize(isa.Op(frag[i].Op)))
	}
	addrs[len(frag)] = a

	var code []byte
	var relocs []obj.Reloc
	for i := range frag {
		mi := &frag[i]
		min := mi.Instr()
		min.Addr, min.Size = addrs[i], isa.EncodedSize(isa.Op(mi.Op))
		if min.IsCTI() {
			target := addrs[mi.JumpTo]
			d := int64(target) - int64(addrs[i]+uint64(min.Size))
			if d != int64(int32(d)) {
				return nil, nil, fmt.Errorf("meta branch displacement overflow")
			}
			min.Disp = int32(d)
		}
		if mi.Reloc == uint8(dbm.RelocRetAddr) {
			// The return address the instrumentation must record is the
			// anchor's fall-through — in the copy, not the original.
			min.Imm = int64(appAddr + uint64(in.Size))
			if ap.plan.PIC {
				relocs = append(relocs, obj.Reloc{Kind: obj.RelRebase, Where: addrs[i] + 2})
			}
		}
		if min.Op == isa.OpTrap {
			man.TrapOrigin[addrs[i]] = mi.Addr
		}
		code = isa.Encode(code, &min)
	}
	return code, relocs, nil
}

// encodeApp encodes the copy of one application instruction at addr,
// retargeting direct branches through the alias map and rebasing
// pc-relative operands so they keep addressing the original image.
func (ap *applier) encodeApp(in *isa.Instr, addr uint64, man *Manifest) ([]byte, error) {
	out := *in
	out.Addr = addr
	next := addr + uint64(in.Size)
	origNext := in.Addr + uint64(in.Size)
	switch {
	case in.Op == isa.OpJmp || in.Op == isa.OpCall || in.IsCondBranch():
		target := in.Target()
		if alias, ok := man.Alias[target]; ok {
			target = alias
		}
		d := int64(target) - int64(next)
		if d != int64(int32(d)) {
			return nil, fmt.Errorf("application branch displacement overflow")
		}
		out.Disp = int32(d)
	case in.Op == isa.OpLdPC || in.Op == isa.OpLeaPC:
		eff := origNext + uint64(int64(in.Disp))
		d := int64(eff) - int64(next)
		if d != int64(int32(d)) {
			return nil, fmt.Errorf("pc-relative displacement overflow")
		}
		out.Disp = int32(d)
	case in.Op == isa.OpTrap:
		man.TrapOrigin[addr] = in.Addr + ap.delta
	}
	return isa.Encode(nil, &out), nil
}

// assemble clones the module, patches the trampolines and attaches the
// `.jrw` section.
func (ap *applier) assemble(man *Manifest, code []byte, relocs []obj.Reloc) (*Rewritten, error) {
	out := *ap.mod
	out.Sections = make([]obj.Section, len(ap.mod.Sections))
	for i := range ap.mod.Sections {
		out.Sections[i] = ap.mod.Sections[i]
		out.Sections[i].Data = append([]byte(nil), ap.mod.Sections[i].Data...)
	}
	for _, pin := range man.Pinned {
		sec := sectionAt(&out, pin)
		if sec == nil {
			return nil, fmt.Errorf("rewrite: pin %#x outside every section", pin)
		}
		alias := man.Alias[pin]
		d := int64(alias) - int64(pin+trampolineLen)
		if d != int64(int32(d)) {
			return nil, fmt.Errorf("rewrite: trampoline displacement overflow at %#x", pin)
		}
		jmp := isa.Instr{Op: isa.OpJmp, Disp: int32(d)}
		b := isa.Encode(nil, &jmp)
		copy(sec.Data[pin-sec.Addr:], b)
	}
	if len(code) > 0 {
		out.Sections = append(out.Sections, obj.Section{
			Name: ".jrw", Addr: man.CopyLo, Flags: obj.SecExec, Data: code,
		})
		out.Relocs = append(append([]obj.Reloc(nil), ap.mod.Relocs...), relocs...)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: rewritten %s invalid: %w", ap.mod.Name, err)
	}
	return &Rewritten{Module: &out, Manifest: man}, nil
}

// sectionAt finds the section containing addr in the cloned module (the
// obj helper works on the receiver, which here must be the clone so the
// patch lands in the cloned data).
func sectionAt(m *obj.Module, addr uint64) *obj.Section {
	for i := range m.Sections {
		s := &m.Sections[i]
		if addr >= s.Addr && addr < s.Addr+uint64(len(s.Data)) {
			return s
		}
	}
	return nil
}
