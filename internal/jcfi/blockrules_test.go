package jcfi

import (
	"reflect"
	"testing"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
)

// handBlock lays ins out from start as one block never seen statically.
func handBlock(lm *loader.LoadedModule, start uint64, ins ...isa.Instr) *dbm.BlockContext {
	addr := start
	for i := range ins {
		ins[i].Addr = addr
		addr += uint64(ins[i].Size)
	}
	return &dbm.BlockContext{Start: start, AppInstrs: ins, Module: lm}
}

func reg(op isa.Op, r isa.Register) isa.Instr {
	return dbm.MkInstr(op, func(i *isa.Instr) { i.Rd = r })
}

// TestBlockRules: JCFI's block-local rules sit on the terminating CTI, with
// all-live liveness: the PLT idiom and an indirect call take the call
// table (the call check ahead of the shadow push), the resolver's push;ret
// takes a forward check, a plain return the shadow stack, and an indirect
// jump the nearest-symbol range, stored module-relative.
func TestBlockRules(t *testing.T) {
	const base = 0x7000_0000
	lm := &loader.LoadedModule{LoadBase: base, Module: &obj.Module{
		PIC: true, SymLevel: obj.SymFull,
		Symbols: []obj.Symbol{
			{Name: "f", Addr: 0x100, Kind: obj.SymFunc},
			{Name: "g", Addr: 0x180, Kind: obj.SymFunc},
		},
	}}
	mov := dbm.MkInstr(isa.OpMovRI, func(i *isa.Instr) { i.Rd, i.Imm = isa.R1, 1 })
	for _, c := range []struct {
		name string
		bc   *dbm.BlockContext
		want []rules.ID
		lo   uint64 // CFI_JUMP's Data[1] and Data[2]: the range, link-time
		hi   uint64
	}{
		{"plt", handBlock(nil, 0x1000, reg(isa.OpLdPC, isa.R5), reg(isa.OpJmpI, isa.R5)),
			[]rules.ID{rules.CFICall}, 0, 0},
		{"calli", handBlock(nil, 0x1000, mov, reg(isa.OpCallI, isa.R1)),
			[]rules.ID{rules.CFICall, rules.ShadowPush}, 0, 0},
		{"call", handBlock(nil, 0x1000, dbm.MkInstr(isa.OpCall, nil)),
			[]rules.ID{rules.ShadowPush}, 0, 0},
		{"resolver", handBlock(nil, 0x1000, reg(isa.OpPush, isa.R0), dbm.MkInstr(isa.OpRet, nil)),
			[]rules.ID{rules.CFIResolverRet}, 0, 0},
		{"ret", handBlock(nil, 0x1000, mov, dbm.MkInstr(isa.OpRet, nil)),
			[]rules.ID{rules.CFIRet}, 0, 0},
		{"jmpi not after its ldpc", handBlock(nil, 0x1000, reg(isa.OpLdPC, isa.R5), reg(isa.OpJmpI, isa.R6)),
			[]rules.ID{rules.CFIJump}, 0, 0},
		{"jmpi in a PIC module", handBlock(lm, base+0x120, reg(isa.OpJmpI, isa.R6)),
			[]rules.ID{rules.CFIJump}, 0x100, 0x180},
		{"no CTI", handBlock(nil, 0x1000, mov), nil, 0, 0},
	} {
		got := New(DefaultConfig).BlockRules(c.bc)
		term := c.bc.AppInstrs[len(c.bc.AppInstrs)-1].Addr
		var ids []rules.ID
		for addr, rs := range got {
			if addr != term {
				t.Errorf("%s: rules on %#x, want only on the terminator %#x", c.name, addr, term)
			}
			for _, r := range rs {
				ids = append(ids, r.ID)
				if r.Data[0] != rules.AllLive || r.BBAddr != c.bc.Start || r.Instr != term {
					t.Errorf("%s: rule %v", c.name, r)
				}
				if r.ID == rules.CFIJump && (r.Data[1] != c.lo || r.Data[2] != c.hi || r.Data[3] != 0) {
					t.Errorf("%s: jump range %v, want [%#x, %#x)", c.name, r, c.lo, c.hi)
				}
			}
		}
		if !reflect.DeepEqual(ids, c.want) {
			t.Errorf("%s: rules %v, want %v", c.name, ids, c.want)
		}
	}
}
