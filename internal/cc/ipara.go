package cc

import "repro/internal/isa"

// ipa-ra (inter-procedural register allocation, gcc's -fipa-ra): at -O2 the
// compiler elides caller-saved spills around direct calls to same-unit
// functions whose transitive extent provably never touches the register.
// This deliberately breaks the calling convention in exactly the way §4.1.2
// describes — and is what the reliance-aware inter-procedural liveness in
// package analysis exists to survive.
//
// Codegen runs once and emits every spill. As it emits each function, it
// records the facts ipa-ra needs: the registers the function writes, the
// functions it calls or tail-jumps to, whether it escapes the unit, and
// each spill around a direct call. After codegen, one fixpoint over these
// facts picks the dead spills, which are deleted from the unit before it
// is linked.

// ipara is what codegen records for ipa-ra. A nil *ipara records nothing:
// ipa-ra applies only at -O2 without NoIPARA.
type ipara struct {
	funcs  []fnFacts // in emission order; the last is being emitted
	calls  []call
	spills []spill
}

// fnFacts is what ipa-ra knows of one function.
type fnFacts struct {
	name string
	// writes has bit r set if the function may write register r. Its own
	// instructions set bits; ipa-ra's fixpoint adds its callees'. A
	// function whose extent escapes the unit, by a calli or jmpi (jump
	// tables included) or a call or jump to an import, writes every
	// register. Spills only ever ask about the temps r6–r11.
	writes uint16
}

// escapes is the writes of a function whose extent escapes the unit.
const escapes = ^uint16(0)

// call is a direct call or tail jump out of funcs[from] to the symbol to:
// a unit function or an import.
type call struct {
	from int
	to   string
}

// spill is one push or pop of a caller-saved temp that genCall emitted
// around a direct call.
type spill struct {
	at     int // index among the .text items
	callee string
	reg    isa.Register
}

// begin starts recording the function called name.
func (ra *ipara) begin(name string) {
	if ra != nil {
		ra.funcs = append(ra.funcs, fnFacts{name: name})
	}
}

// instr records an instruction without a symbolic operand.
func (ra *ipara) instr(in *isa.Instr) {
	if ra == nil {
		return
	}
	f := &ra.funcs[len(ra.funcs)-1]
	if in.Op == isa.OpCallI || in.Op == isa.OpJmpI {
		f.writes = escapes
	}
	var buf [2]isa.Register
	for _, d := range in.RegDefs(buf[:0]) {
		f.writes |= 1 << d
	}
}

// transfer records a direct call or jump to sym; a jump to an
// assembly-local label stays inside the function.
func (ra *ipara) transfer(sym string) {
	if ra != nil && sym[0] != '.' {
		ra.calls = append(ra.calls, call{from: len(ra.funcs) - 1, to: sym})
	}
}

// spill records that the item at index at pushes or pops r around a direct
// call to callee.
func (ra *ipara) spill(at int, callee string, r isa.Register) {
	if ra != nil && callee != "" {
		ra.spills = append(ra.spills, spill{at: at, callee: callee, reg: r})
	}
}

// dead returns the ascending .text item indices of the spills ipa-ra
// drops: those around calls to unit functions whose transitive extent never
// writes the spilled register.
func (ra *ipara) dead() []int {
	if ra == nil || len(ra.spills) == 0 {
		return nil
	}
	idx := make(map[string]int, len(ra.funcs))
	for i, f := range ra.funcs {
		idx[f.name] = i
	}
	for changed := true; changed; {
		changed = false
		for _, c := range ra.calls {
			m := escapes // an import
			if i, ok := idx[c.to]; ok {
				m = ra.funcs[i].writes
			}
			if f := &ra.funcs[c.from]; f.writes|m != f.writes {
				f.writes |= m
				changed = true
			}
		}
	}
	var drop []int
	for _, s := range ra.spills {
		if i, ok := idx[s.callee]; ok && ra.funcs[i].writes&(1<<s.reg) == 0 {
			drop = append(drop, s.at)
		}
	}
	return drop
}
