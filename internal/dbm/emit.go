package dbm

import (
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// Emitter builds code-cache instruction sequences for inline
// instrumentation: application instructions interleaved with meta
// instructions, including intra-block meta control flow via placeholder
// patching. Tools inline their checks as meta code ("hand-written
// non-application assembly", §4.1.1) instead of clean calls, which is what
// lets liveness information shrink save/restore costs.
type Emitter struct {
	Out []CInstr

	// cc is stamped on every emitted meta instruction (telemetry cost
	// attribution). The zero value is telemetry.CCOther, so tools that
	// never call SetCC keep their meta cycles accounted as "other".
	cc telemetry.CostCenter
}

// SetCC selects the cost center stamped on subsequently emitted meta
// instructions — tools call it when switching between rule kinds so the
// profiler can attribute each meta sequence to the rule that emitted it.
func (e *Emitter) SetCC(cc telemetry.CostCenter) { e.cc = cc }

// MkInstr constructs a meta instruction with its encoded size filled in and
// optional field initialisation.
func MkInstr(op isa.Op, f func(*isa.Instr)) isa.Instr {
	in := isa.Instr{Op: op, Size: isa.EncodedSize(op)}
	if f != nil {
		f(&in)
	}
	return in
}

// Meta appends one meta instruction, stamped with the current cost center.
func (e *Emitter) Meta(in isa.Instr) {
	e.Out = append(e.Out, CInstr{In: in, JumpTo: -1, Meta: true, CC: e.cc})
}

// MetaReloc appends one meta instruction carrying a position-dependent
// immediate, tagged so the static rewriting backend can rematerialise it
// when the surrounding code moves.
func (e *Emitter) MetaReloc(in isa.Instr, r RelocKind) {
	e.Out = append(e.Out, CInstr{In: in, JumpTo: -1, Meta: true, CC: e.cc, Reloc: r})
}

// App appends one application instruction.
func (e *Emitter) App(in isa.Instr) { e.Out = append(e.Out, App(in)) }

// Placeholder reserves a slot for a forward meta branch and returns its
// index for later patching with PatchJump.
func (e *Emitter) Placeholder() int {
	e.Out = append(e.Out, CInstr{})
	return len(e.Out) - 1
}

// PatchJump fills a placeholder with a conditional/unconditional meta branch
// targeting the current position.
func (e *Emitter) PatchJump(idx int, op isa.Op) {
	e.Out[idx] = CInstr{In: MkInstr(op, nil), JumpTo: int32(len(e.Out)), Meta: true, CC: e.cc}
}

// JumpHere returns the current position for use as a backward MetaJump
// target.
func (e *Emitter) JumpHere() int { return len(e.Out) }

// MetaJumpTo appends a meta branch to an already-known index (backward
// jumps, e.g. probe loops).
func (e *Emitter) MetaJumpTo(op isa.Op, target int) {
	e.Out = append(e.Out, CInstr{In: MkInstr(op, nil), JumpTo: int32(target), Meta: true, CC: e.cc})
}

// ScratchCandidates is the preference order for scratch registers that are
// not known dead (they get saved/restored): temporaries first.
var ScratchCandidates = []isa.Register{
	isa.R6, isa.R7, isa.R8, isa.R9, isa.R10, isa.R11,
	isa.R3, isa.R4, isa.R5, isa.R2, isa.R1, isa.R0, isa.R12, isa.R13,
}

// PickScratch selects n scratch registers, preferring the supplied dead
// registers (which need no saving), excluding registers for which exclude
// returns true. Registers not taken from dead are returned in toSave and
// must be pushed/popped around their use.
func PickScratch(n int, dead []isa.Register, exclude func(isa.Register) bool) (regs, toSave []isa.Register) {
	used := map[isa.Register]bool{}
	for _, r := range dead {
		if len(regs) == n {
			break
		}
		if exclude(r) || used[r] {
			continue
		}
		regs = append(regs, r)
		used[r] = true
	}
	for _, r := range ScratchCandidates {
		if len(regs) == n {
			break
		}
		if exclude(r) || used[r] {
			continue
		}
		regs = append(regs, r)
		toSave = append(toSave, r)
		used[r] = true
	}
	return regs, toSave
}

// ExcludeOperands returns an exclusion predicate covering the registers an
// instruction reads or writes, plus SP and FP.
func ExcludeOperands(in *isa.Instr) func(isa.Register) bool {
	var mask uint16
	for _, r := range in.RegUses(nil) {
		mask |= 1 << r
	}
	for _, r := range in.RegDefs(nil) {
		mask |= 1 << r
	}
	mask |= 1<<isa.SP | 1<<isa.FP
	return func(r isa.Register) bool { return mask&(1<<r) != 0 }
}

// SaveProlog pushes flags (if saveFlags) and the given registers; it is
// paired with RestoreEpilog.
func (e *Emitter) SaveProlog(saveFlags bool, regs []isa.Register) {
	if saveFlags {
		e.Meta(MkInstr(isa.OpPushF, nil))
	}
	for _, r := range regs {
		r := r
		e.Meta(MkInstr(isa.OpPush, func(i *isa.Instr) { i.Rd = r }))
	}
}

// RestoreEpilog pops the registers in reverse and then the flags.
func (e *Emitter) RestoreEpilog(saveFlags bool, regs []isa.Register) {
	for i := len(regs) - 1; i >= 0; i-- {
		r := regs[i]
		e.Meta(MkInstr(isa.OpPop, func(in *isa.Instr) { in.Rd = r }))
	}
	if saveFlags {
		e.Meta(MkInstr(isa.OpPopF, nil))
	}
}
