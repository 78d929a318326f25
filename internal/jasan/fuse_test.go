package jasan

import (
	"fmt"
	"testing"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/shadow"
	"repro/internal/vm"
)

// TestEmitCheckIsFused pins the emitted check to the executor's fused
// idiom: every EmitCheck shape, at widths 1 and 8, with and without saved
// registers and flags, must be retired as one step. An emitter change that
// breaks the idiom fails here instead of silently running seven
// dispatches per check.
func TestEmitCheckIsFused(t *testing.T) {
	accesses := []isa.Instr{
		{Op: isa.OpLdB, Rd: isa.R3, Rb: isa.R1, Disp: 8},
		{Op: isa.OpStB, Rd: isa.R3, Rb: isa.R1, Disp: -8},
		{Op: isa.OpLdQ, Rd: isa.R3, Rb: isa.R1, Disp: 16},
		{Op: isa.OpStQ, Rd: isa.R3, Rb: isa.R1},
		{Op: isa.OpLdXB, Rd: isa.R3, Rb: isa.R1, Ri: isa.R2, Disp: 4},
		{Op: isa.OpLdXQ, Rd: isa.R3, Rb: isa.R1, Ri: isa.R2, Disp: 8},
	}
	for _, in := range accesses {
		in.Addr, in.Size = 0x1000, isa.EncodedSize(in.Op)
		for _, dead := range [][]isa.Register{nil, {isa.R6, isa.R7}} {
			for _, saveFlags := range []bool{false, true} {
				e := &dbm.Emitter{}
				EmitCheck(e, shadow.AccessPlan(&in, dead, saveFlags))
				name := fmt.Sprintf("%v width %d dead %v flags %v", in.Op, in.AccessWidth(), dead, saveFlags)
				if n := vm.FuseChecks(e.Out); n != 1 {
					t.Errorf("%s: %d fused checks in %d instructions, want 1", name, n, len(e.Out))
				}
			}
		}
	}
	// The SCEV-hoisted preheader check computes its address with AddrLea.
	for _, width := range []int{1, 8} {
		e := &dbm.Emitter{}
		EmitCheck(e, &shadow.CheckPlan{AppAddr: 0x1000, Width: width,
			S1: isa.R6, S2: isa.R7, Addr: AddrLea(isa.R1, 64)})
		if n := vm.FuseChecks(e.Out); n != 1 {
			t.Errorf("hoisted width %d: %d fused checks, want 1", width, n)
		}
	}
}
