package shadow

import (
	"fmt"
	"testing"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestEmitBitmapCheckIsFused pins the bitmap check to the executor's fused
// idiom at widths 1 and 8, with and without saved registers and flags. An
// emitter change that breaks the idiom fails here instead of silently
// running seven dispatches per check.
func TestEmitBitmapCheckIsFused(t *testing.T) {
	accesses := []isa.Instr{
		{Op: isa.OpLdB, Rd: isa.R3, Rb: isa.R1, Disp: 8},
		{Op: isa.OpStQ, Rd: isa.R3, Rb: isa.R1, Disp: -16},
		{Op: isa.OpStXB, Rd: isa.R3, Rb: isa.R1, Ri: isa.R2},
		{Op: isa.OpLdXQ, Rd: isa.R3, Rb: isa.R1, Ri: isa.R2, Disp: 8},
	}
	for _, in := range accesses {
		in.Addr, in.Size = 0x1000, isa.EncodedSize(in.Op)
		for _, dead := range [][]isa.Register{nil, {isa.R6, isa.R7}} {
			for _, saveFlags := range []bool{false, true} {
				e := &dbm.Emitter{}
				EmitBitmapCheck(e, AccessPlan(&in, dead, saveFlags), isa.LayoutGenShadowBase, Family(isa.TrapToolBase))
				name := fmt.Sprintf("%v width %d dead %v flags %v", in.Op, in.AccessWidth(), dead, saveFlags)
				if n := vm.FuseChecks(e.Out); n != 1 {
					t.Errorf("%s: %d fused checks in %d instructions, want 1", name, n, len(e.Out))
				}
			}
		}
	}
}
