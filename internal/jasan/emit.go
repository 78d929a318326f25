package jasan

import (
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/shadow"
)

// mk is shorthand for constructing meta instructions.
func mk(op isa.Op, f func(*isa.Instr)) isa.Instr { return dbm.MkInstr(op, f) }

// AddrLea returns an address-computation closure for a fixed base+disp
// (hoisted range checks).
func AddrLea(base isa.Register, disp int32) func(e *dbm.Emitter, s1 isa.Register) {
	return func(e *dbm.Emitter, s1 isa.Register) {
		e.Meta(mk(isa.OpLea, func(i *isa.Instr) {
			i.Rd, i.Rb, i.Disp = s1, base, disp
		}))
	}
}

// EmitCheck emits one inline shadow check:
//
//	[pushf]  [push saves]
//	<addr into s1>
//	mov  s2, s1
//	shr  s2, 3
//	add  s2, SHADOW_BASE
//	ldb  s2, [s2]
//	test s2, s2
//	je   done                    ; fast path: granule fully addressable
//	  (width 8)  trap report
//	  (width 1)  cmp s2, 8 / jae report    ; poison byte
//	             push s1 / and s1,7 / cmp s1,s2 / pop s1 / jb done
//	             report: trap
//	done: [pops]  [popf]
func EmitCheck(e *dbm.Emitter, p *shadow.CheckPlan) {
	e.SaveProlog(p.SaveFlags, p.SaveRegs)
	p.Addr(e, p.S1)
	e.Meta(mk(isa.OpMovRR, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S1 }))
	e.Meta(mk(isa.OpShrRI, func(i *isa.Instr) { i.Rd, i.Imm = p.S2, 3 }))
	e.Meta(mk(isa.OpAddRI, func(i *isa.Instr) {
		i.Rd, i.Imm = p.S2, int64(isa.LayoutShadowBase)
	}))
	e.Meta(mk(isa.OpLdB, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S2 }))
	e.Meta(mk(isa.OpTestRR, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S2 }))
	jeDone := e.Placeholder()

	emitTrap := func() {
		e.Meta(mk(isa.OpTrap, func(i *isa.Instr) {
			i.Imm = reportTraps.Code(p.S1, p.Width)
			i.Addr = p.AppAddr
		}))
	}
	if p.Width == 8 {
		emitTrap()
	} else {
		// Partial-granule handling for byte accesses.
		e.Meta(mk(isa.OpCmpRI, func(i *isa.Instr) { i.Rd, i.Imm = p.S2, 8 }))
		jaeReport := e.Placeholder()
		e.Meta(mk(isa.OpPush, func(i *isa.Instr) { i.Rd = p.S1 }))
		e.Meta(mk(isa.OpAndRI, func(i *isa.Instr) { i.Rd, i.Imm = p.S1, 7 }))
		e.Meta(mk(isa.OpCmpRR, func(i *isa.Instr) { i.Rd, i.Rb = p.S1, p.S2 }))
		e.Meta(mk(isa.OpPop, func(i *isa.Instr) { i.Rd = p.S1 }))
		jbDone := e.Placeholder()
		e.PatchJump(jaeReport, isa.OpJae)
		emitTrap()
		e.PatchJump(jbDone, isa.OpJb)
	}
	e.PatchJump(jeDone, isa.OpJe)
	e.RestoreEpilog(p.SaveFlags, p.SaveRegs)
}

// EmitSetShadow emits a write of `value` to the shadow byte covering
// [base+disp]: the poison/unpoison sequence for canary slots.
func EmitSetShadow(e *dbm.Emitter, base isa.Register, disp int32, value byte,
	s1, s2 isa.Register, saveRegs []isa.Register, saveFlags bool) {

	e.SaveProlog(saveFlags, saveRegs)
	e.Meta(mk(isa.OpLea, func(i *isa.Instr) { i.Rd, i.Rb, i.Disp = s1, base, disp }))
	e.Meta(mk(isa.OpShrRI, func(i *isa.Instr) { i.Rd, i.Imm = s1, 3 }))
	e.Meta(mk(isa.OpAddRI, func(i *isa.Instr) {
		i.Rd, i.Imm = s1, int64(isa.LayoutShadowBase)
	}))
	e.Meta(mk(isa.OpMovRI, func(i *isa.Instr) { i.Rd, i.Imm = s2, int64(value) }))
	e.Meta(mk(isa.OpStB, func(i *isa.Instr) { i.Rd, i.Rb = s2, s1 }))
	e.RestoreEpilog(saveFlags, saveRegs)
}
