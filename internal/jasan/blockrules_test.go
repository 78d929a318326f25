package jasan

import (
	"reflect"
	"testing"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// handBlock lays ins out from 0x1000 as one block never seen statically.
func handBlock(ins ...isa.Instr) *dbm.BlockContext {
	addr := uint64(0x1000)
	for i := range ins {
		ins[i].Addr = addr
		addr += uint64(ins[i].Size)
	}
	return &dbm.BlockContext{Start: 0x1000, AppInstrs: ins}
}

func stq(rd, rb isa.Register, disp int32) isa.Instr {
	return dbm.MkInstr(isa.OpStQ, func(i *isa.Instr) { i.Rd, i.Rb, i.Disp = rd, rb, disp })
}

func ldq(rd, rb isa.Register, disp int32) isa.Instr {
	return dbm.MkInstr(isa.OpLdQ, func(i *isa.Instr) { i.Rd, i.Rb, i.Disp = rd, rb, disp })
}

func ldg(rd isa.Register) isa.Instr {
	return dbm.MkInstr(isa.OpLdG, func(i *isa.Instr) { i.Rd = rd })
}

// TestBlockRulesCanaryPair: the block-local matcher turns a canary install
// into a POISON_CANARY on the instruction after the store, and a frame
// reload ahead of a guard load into an UNPOISON_CANARY; neither the install
// store nor the reload is checked, every other access is. Planned through
// PlanStatic, the poison lands ahead of the next instruction's check.
func TestBlockRulesCanaryPair(t *testing.T) {
	bc := handBlock(
		ldg(isa.R1),
		stq(isa.R1, isa.FP, -8), // install
		stq(isa.R2, isa.FP, -16),
		ldq(isa.R3, isa.FP, -8), // reload
		ldg(isa.R4),
		dbm.MkInstr(isa.OpRet, nil),
	)
	ins := bc.AppInstrs
	disp := int32(-8)
	slot := [4]uint64{rules.AllLive, uint64(isa.FP), uint64(uint32(disp))}
	want := map[uint64][]rules.Rule{
		ins[2].Addr: {
			{ID: rules.PoisonCanary, BBAddr: 0x1000, Instr: ins[2].Addr, Data: slot},
			{ID: rules.MemAccess, BBAddr: 0x1000, Instr: ins[2].Addr, Data: [4]uint64{rules.AllLive}},
		},
		ins[3].Addr: {
			{ID: rules.UnpoisonCanary, BBAddr: 0x1000, Instr: ins[3].Addr, Data: slot},
		},
	}
	tool := New(Config{UseLiveness: true})
	got := tool.BlockRules(bc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BlockRules =\n%v\nwant\n%v", got, want)
	}

	// Emission: after the install store come the poison, then the check
	// of the next store, then that store.
	p := tool.PlanStatic(bc, got)
	e := &dbm.Emitter{}
	p.Before(e, 2)
	var ccs []telemetry.CostCenter
	for _, c := range e.Out {
		if len(ccs) == 0 || ccs[len(ccs)-1] != c.CC {
			ccs = append(ccs, c.CC)
		}
	}
	if want := []telemetry.CostCenter{telemetry.CCCanary, telemetry.CCMemCheck}; !reflect.DeepEqual(ccs, want) {
		t.Fatalf("instrumentation ahead of the store after the install: cost centers %v, want %v", ccs, want)
	}
}

// TestBlockRulesInstallLastInBlock: an install store that is the block's
// last decoded instruction is exempt from checking, and there is no next
// instruction to poison ahead of (execution faults right after it).
func TestBlockRulesInstallLastInBlock(t *testing.T) {
	bc := handBlock(ldg(isa.R1), stq(isa.R1, isa.SP, 24))
	if got := New(Config{}).BlockRules(bc); len(got) != 0 {
		t.Fatalf("BlockRules = %v, want none", got)
	}
}
