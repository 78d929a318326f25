package shadow

import (
	"repro/internal/dbm"
	"repro/internal/isa"
)

// mk is shorthand for constructing meta instructions.
func mk(op isa.Op, f func(*isa.Instr)) isa.Instr { return dbm.MkInstr(op, f) }

// CheckPlan describes one inline shadow check.
type CheckPlan struct {
	// AppAddr is the application address of the instrumented access; the
	// report trap carries it so diagnostics name real code.
	AppAddr uint64
	// Width is the access width (1 or 8).
	Width int
	// S1 and S2 are the scratch registers. S1 ends up holding the
	// application address, S2 the shadow byte or word.
	S1, S2 isa.Register
	// SaveRegs lists scratch registers that are live and must be saved
	// around the check (empty when liveness found dead registers).
	SaveRegs []isa.Register
	// SaveFlags saves/restores the arithmetic flags (required when
	// liveness says they are live — the check's shr/add/test clobber
	// them).
	SaveFlags bool
	// Addr emits the address computation into S1.
	Addr func(e *dbm.Emitter, s1 isa.Register)
}

// AccessPlan plans the check of a memory access's operand: two scratch
// registers, taken from dead where possible and saved otherwise, and the
// flags saved when saveFlags is set.
func AccessPlan(in *isa.Instr, dead []isa.Register, saveFlags bool) *CheckPlan {
	scratch, toSave := dbm.PickScratch(2, dead, dbm.ExcludeOperands(in))
	return &CheckPlan{
		AppAddr: in.Addr, Width: in.AccessWidth(),
		S1: scratch[0], S2: scratch[1],
		SaveRegs: toSave, SaveFlags: saveFlags,
		Addr: AddrOf(in),
	}
}

// leaOf is the lea forming each memory-access addressing's address.
var leaOf = [...]isa.Op{isa.AddrBase: isa.OpLea, isa.AddrIndex8: isa.OpLeaX,
	isa.AddrIndex1: isa.OpLeaXB}

// AddrOf returns an address-computation closure for a memory-access
// instruction's operand.
func AddrOf(in *isa.Instr) func(e *dbm.Emitter, s1 isa.Register) {
	op := *in // copy: the closure outlives the caller's loop variable
	a := in.MemAddr()
	return func(e *dbm.Emitter, s1 isa.Register) {
		if a == isa.AddrNone {
			return
		}
		e.Meta(mk(leaOf[a], func(i *isa.Instr) {
			i.Rd, i.Rb, i.Disp = s1, op.Rb, op.Disp
			if a.Indexed() {
				i.Ri = op.Ri
			}
		}))
	}
}

// EmitBitmapCheck emits one inline check against the Bitmap at base:
//
//	[pushf]  [push saves]
//	<addr into s1>
//	mov  s2, s1
//	shr  s2, 3
//	add  s2, base
//	ldb/ldq s2, [s2]             ; width 1: granule byte, width 8: window
//	test s2, s2
//	je   done                    ; fast path: no bit set in the window
//	trap traps(s1, width)        ; handler does the precise per-byte test
//	done: [pops]  [popf]
//
// The fast path inspects whole shadow bytes — an 8-byte granule for byte
// accesses, a 64-byte window for quad accesses (sound for unaligned quads,
// which may straddle two granules). A set bit anywhere in the window routes
// to the trap handler, which re-tests exactly the accessed bytes and stays
// silent when only neighbour bytes are set.
func EmitBitmapCheck(e *dbm.Emitter, p *CheckPlan, base uint64, traps Family) {
	e.SaveProlog(p.SaveFlags, p.SaveRegs)
	p.Addr(e, p.S1)
	e.Meta(mk(isa.OpMovRR, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S1 }))
	e.Meta(mk(isa.OpShrRI, func(i *isa.Instr) { i.Rd, i.Imm = p.S2, 3 }))
	e.Meta(mk(isa.OpAddRI, func(i *isa.Instr) { i.Rd, i.Imm = p.S2, int64(base) }))
	if p.Width == 8 {
		e.Meta(mk(isa.OpLdQ, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S2 }))
	} else {
		e.Meta(mk(isa.OpLdB, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S2 }))
	}
	e.Meta(mk(isa.OpTestRR, func(i *isa.Instr) { i.Rd, i.Rb = p.S2, p.S2 }))
	jeDone := e.Placeholder()
	e.Meta(mk(isa.OpTrap, func(i *isa.Instr) {
		i.Imm = traps.Code(p.S1, p.Width)
		i.Addr = p.AppAddr
	}))
	e.PatchJump(jeDone, isa.OpJe)
	e.RestoreEpilog(p.SaveFlags, p.SaveRegs)
}
