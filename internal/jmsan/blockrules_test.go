package jmsan

import (
	"reflect"
	"testing"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/rules"
)

// TestBlockRulesFrameAndAccesses: JMSan's block-local rules define every
// store, check every load, and mark a prologue frame allocation undefined
// with its size (less the canary slot the prologue installs) in Data[1].
func TestBlockRulesFrameAndAccesses(t *testing.T) {
	ins := []isa.Instr{
		dbm.MkInstr(isa.OpMovRR, func(i *isa.Instr) { i.Rd, i.Rb = isa.FP, isa.SP }),
		dbm.MkInstr(isa.OpSubRI, func(i *isa.Instr) { i.Rd, i.Imm = isa.SP, 32 }),
		dbm.MkInstr(isa.OpLdG, func(i *isa.Instr) { i.Rd = isa.R1 }),
		dbm.MkInstr(isa.OpStQ, func(i *isa.Instr) { i.Rd, i.Rb, i.Disp = isa.R1, isa.FP, -8 }),
		dbm.MkInstr(isa.OpLdQ, func(i *isa.Instr) { i.Rd, i.Rb, i.Disp = isa.R2, isa.FP, -16 }),
		dbm.MkInstr(isa.OpRet, nil),
	}
	addr := uint64(0x1000)
	for i := range ins {
		ins[i].Addr = addr
		addr += uint64(ins[i].Size)
	}
	bc := &dbm.BlockContext{Start: 0x1000, AppInstrs: ins}
	rule := func(id rules.ID, i int, size uint64) []rules.Rule {
		return []rules.Rule{{ID: id, BBAddr: 0x1000, Instr: ins[i].Addr,
			Data: [4]uint64{rules.AllLive, size}}}
	}
	want := map[uint64][]rules.Rule{
		ins[1].Addr: rule(rules.FrameUndef, 1, 32-8),
		ins[3].Addr: rule(rules.MemDefStore, 3, 0),
		ins[4].Addr: rule(rules.MemDefLoad, 4, 0),
	}
	if got := New(Config{UseLiveness: true}).BlockRules(bc); !reflect.DeepEqual(got, want) {
		t.Fatalf("BlockRules =\n%v\nwant\n%v", got, want)
	}
}
