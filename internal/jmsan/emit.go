package jmsan

import (
	"repro/internal/dbm"
	"repro/internal/isa"
)

// mk is shorthand for constructing meta instructions.
func mk(op isa.Op, f func(*isa.Instr)) isa.Instr { return dbm.MkInstr(op, f) }

// EmitDefStore emits the shadow update for one store:
//
//	[push saves]
//	<addr into s1>
//	trap define                  ; handler marks [addr, addr+width) defined
//	[pops]
//
// Bit surgery on the shadow would need flag-clobbering arithmetic inline;
// the clean-call trap keeps the sequence to two instructions and leaves the
// flags untouched (lea, trap, push and pop set none).
func EmitDefStore(e *dbm.Emitter, appAddr uint64, width int, s1 isa.Register,
	saveRegs []isa.Register, addr func(e *dbm.Emitter, s1 isa.Register)) {

	e.SaveProlog(false, saveRegs)
	addr(e, s1)
	e.Meta(mk(isa.OpTrap, func(i *isa.Instr) {
		i.Imm = DefStoreTraps.Code(s1, width)
		i.Addr = appAddr
	}))
	e.RestoreEpilog(false, saveRegs)
}

// EmitFrameUndef emits the frame-poisoning trap placed after a prologue's
// stack allocation (`sub sp, N`). The trap carries only the application
// address; the handler looks the frame size up in the tool's side table and
// marks [sp, sp+size) undefined — no registers or flags are touched.
func EmitFrameUndef(e *dbm.Emitter, appAddr uint64) {
	e.Meta(mk(isa.OpTrap, func(i *isa.Instr) {
		i.Imm = trapFrameUndef
		i.Addr = appAddr
	}))
}
