package cc

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
)

// ipa-ra (inter-procedural register allocation, gcc's -fipa-ra): at -O2 the
// compiler elides caller-saved spills around direct calls to same-unit
// functions whose transitive extent provably never touches the register.
// This deliberately breaks the calling convention in exactly the way §4.1.2
// describes — and is what the reliance-aware inter-procedural liveness in
// package analysis exists to survive.
//
// Codegen runs once: it emits every spill and records each one around a
// direct call. The clobber facts come from the module linked from that
// full unit; the spills they prove dead are then deleted from the unit,
// which is linked again. Leaving out a pop only removes a register write,
// so the facts stay sound, if conservative, for the final code.

// spill is one push or pop of a caller-saved temp that genCall emitted
// around a direct call.
type spill struct {
	at     int // index among the .text items
	callee string
	reg    isa.Register
}

// elidable returns the ascending .text item indices of the spills ipa-ra
// drops: those around calls to same-unit functions whose transitive
// extent, as mod shows it, never writes the spilled register.
func elidable(mod *obj.Module, spills []spill) ([]int, error) {
	clob, err := unitClobbers(mod)
	if err != nil {
		return nil, err
	}
	var drop []int
	for _, s := range spills {
		if m, ok := clob[s.callee]; ok && !m.Has(s.reg) {
			drop = append(drop, s.at)
		}
	}
	return drop, nil
}

// unitClobbers computes, per function name, the caller-saved registers the
// function's transitive extent may write. Functions whose extent escapes the
// unit (indirect calls, PLT calls, calls into unrecovered code) clobber
// everything, so ipa-ra never applies across them.
func unitClobbers(mod *obj.Module) (map[string]analysis.RegMask, error) {
	g, err := cfg.Build(mod)
	if err != nil {
		return nil, err
	}

	type info struct {
		own     analysis.RegMask
		callees []uint64
		escapes bool
	}
	infos := map[uint64]*info{}
	pltSec := mod.Section(".plt")
	for _, fn := range g.Funcs {
		in := &info{}
		for _, blk := range fn.Blocks {
			for i := range blk.Instrs {
				ins := &blk.Instrs[i]
				for _, d := range ins.RegDefs(nil) {
					in.own = in.own.With(d)
				}
				switch ins.Op {
				case isa.OpCallI, isa.OpJmpI:
					// Indirect transfers (calls and indirect tail
					// calls) leave the analysable extent.
					in.escapes = true
				case isa.OpCall, isa.OpJmp:
					t := ins.Target()
					if ins.Op == isa.OpJmp && g.FuncAt(t) == fn {
						break // intra-function jump: no transfer
					}
					if pltSec != nil && pltSec.Contains(t) {
						in.escapes = true
					} else if g.FuncAt(t) == nil {
						in.escapes = true
					} else {
						in.callees = append(in.callees, g.FuncAt(t).Entry)
					}
				case isa.OpSyscall, isa.OpTrap:
					// Services clobber r0 and read args; model as
					// writing r0 only (they preserve the rest).
					in.own = in.own.With(isa.R0)
				}
			}
		}
		infos[fn.Entry] = in
	}
	// Fixpoint over the unit call graph.
	clob := map[uint64]analysis.RegMask{}
	for e, in := range infos {
		if in.escapes {
			clob[e] = analysis.AllRegs
		} else {
			clob[e] = in.own & analysis.CallerSaved
		}
	}
	for changed := true; changed; {
		changed = false
		for e, in := range infos {
			if clob[e] == analysis.AllRegs {
				continue
			}
			m := clob[e]
			for _, c := range in.callees {
				m |= clob[c]
			}
			m &= analysis.AllRegs
			if m != clob[e] {
				clob[e] = m
				changed = true
			}
		}
	}
	out := map[string]analysis.RegMask{}
	for _, fn := range g.Funcs {
		out[fn.Name] = clob[fn.Entry]
	}
	return out, nil
}
