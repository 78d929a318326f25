package jtsan

import (
	"reflect"
	"testing"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// TestBlockRulesQuarTickWithoutAccess: a malloc trap in a block with no
// memory access still gets its QUAR_TICK rule, and planning the block from
// its rules plants the tick ahead of the trap.
func TestBlockRulesQuarTickWithoutAccess(t *testing.T) {
	ins := []isa.Instr{
		dbm.MkInstr(isa.OpMovRI, func(i *isa.Instr) { i.Rd, i.Imm = isa.R1, 32 }),
		dbm.MkInstr(isa.OpTrap, func(i *isa.Instr) { i.Imm = isa.TrapMalloc }),
	}
	ins[0].Addr = 0x1000
	ins[1].Addr = 0x1000 + uint64(ins[0].Size)
	bc := &dbm.BlockContext{Start: 0x1000, AppInstrs: ins}
	tool := New(Config{UseLiveness: true})
	got := tool.BlockRules(bc)
	want := map[uint64][]rules.Rule{
		ins[1].Addr: {{ID: rules.QuarTick, BBAddr: 0x1000, Instr: ins[1].Addr}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BlockRules = %v, want %v", got, want)
	}
	e := &dbm.Emitter{}
	p := tool.PlanStatic(bc, got)
	for idx := range ins {
		p.Before(e, idx)
		e.App(ins[idx])
		p.After(e, idx)
	}
	if len(e.Out) != 3 || !e.Out[1].Meta || e.Out[1].CC != telemetry.CCQuarantine {
		t.Fatalf("planned block = %+v, want the quarantine tick ahead of the trap", e.Out)
	}
}
