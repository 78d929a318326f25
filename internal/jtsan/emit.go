package jtsan

import (
	"repro/internal/dbm"
	"repro/internal/isa"
)

// EmitQuarTick emits the quarantine cost tick placed before an allocator
// service trap (malloc or free). The handler drains the allocator wrapper's
// accumulated generation-shadow maintenance cost into the machine's cycle
// counter, so quarantine work is charged to the CCQuarantine cost center
// of this meta instruction instead of inflating the application's own
// center — no registers or flags are touched.
func EmitQuarTick(e *dbm.Emitter, appAddr uint64) {
	e.Meta(dbm.MkInstr(isa.OpTrap, func(i *isa.Instr) {
		i.Imm = trapQuarTick
		i.Addr = appAddr
	}))
}
