package analysis

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// DefUse is the SSA-level diffuse-chain tracing of §3.3.3: for every
// register use it records the set of instructions whose definitions may
// reach it. Security analyses use it to answer questions like "does this
// access read a pointer produced by that allocation-site call?" (taint-style
// tracking).
type DefUse struct {
	// reaching maps (instruction address, register) to defining
	// instruction addresses.
	reaching map[duKey][]uint64
}

type duKey struct {
	addr uint64
	reg  isa.Register
}

// DefsOf returns the addresses of instructions whose definition of reg may
// reach the use at addr, sorted ascending. An empty result means the value
// comes from outside the function (argument or boundary).
func (du *DefUse) DefsOf(addr uint64, reg isa.Register) []uint64 {
	return du.reaching[duKey{addr, reg}]
}

// ReachesFrom reports whether the value of reg used at useAddr may originate
// at defAddr, following copy chains transitively is the caller's business —
// the analysis already propagates through moves because moves define their
// destination; use TraceOrigins for transitive pointer provenance.
func (du *DefUse) ReachesFrom(useAddr uint64, reg isa.Register, defAddr uint64) bool {
	for _, d := range du.DefsOf(useAddr, reg) {
		if d == defAddr {
			return true
		}
	}
	return false
}

// maxDefsPerReg caps the tracked definition sets to bound the fixpoint.
const maxDefsPerReg = 16

// ComputeDefUse runs per-function reaching definitions over registers.
func ComputeDefUse(g *cfg.Graph) *DefUse {
	du := &DefUse{reaching: map[duKey][]uint64{}}
	for _, fn := range g.Funcs {
		du.computeFunc(fn)
	}
	return du
}

// regDefs is a per-register set of defining instruction addresses.
type regDefs [isa.NumRegs][]uint64

func (rd *regDefs) clone() regDefs {
	var out regDefs
	for i := range rd {
		out[i] = append([]uint64(nil), rd[i]...)
	}
	return out
}

func mergeSets(a, b []uint64) ([]uint64, bool) {
	changed := false
	for _, v := range b {
		found := false
		for _, w := range a {
			if w == v {
				found = true
				break
			}
		}
		if !found {
			if len(a) >= maxDefsPerReg {
				continue
			}
			a = append(a, v)
			changed = true
		}
	}
	return a, changed
}

func (du *DefUse) computeFunc(fn *cfg.Function) {
	if len(fn.Blocks) == 0 {
		return
	}
	inFunc := map[uint64]*cfg.BasicBlock{}
	for _, b := range fn.Blocks {
		inFunc[b.Start] = b
	}
	inSets := map[uint64]*regDefs{}
	get := func(a uint64) *regDefs {
		s := inSets[a]
		if s == nil {
			s = &regDefs{}
			inSets[a] = s
		}
		return s
	}

	// Forward fixpoint.
	blocks := append([]*cfg.BasicBlock(nil), fn.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Start < blocks[j].Start })
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			out := get(b.Start).clone()
			flowDefs(b, &out, nil)
			for _, s := range b.Succs {
				if _, ok := inFunc[s]; !ok {
					continue
				}
				dst := get(s)
				for r := range out {
					merged, ch := mergeSets(dst[r], out[r])
					dst[r] = merged
					changed = changed || ch
				}
			}
		}
	}
	// Record per-use reaching sets.
	for _, b := range blocks {
		state := get(b.Start).clone()
		flowDefs(b, &state, du)
	}
}

// flowDefs walks a block forward. When du is non-nil it records, for each
// register use, the current reaching definitions.
func flowDefs(b *cfg.BasicBlock, state *regDefs, du *DefUse) {
	var usesBuf, defsBuf [8]isa.Register
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if du != nil {
			for _, u := range in.RegUses(usesBuf[:0]) {
				key := duKey{in.Addr, u}
				if _, ok := du.reaching[key]; !ok {
					set := append([]uint64(nil), state[u]...)
					sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
					du.reaching[key] = set
				}
			}
		}
		// Calls clobber caller-saved registers with unknown values.
		switch in.Op {
		case isa.OpCall, isa.OpCallI:
			for _, r := range CallerSaved.Regs() {
				state[r] = []uint64{in.Addr}
			}
		default:
			for _, d := range in.RegDefs(defsBuf[:0]) {
				state[d] = []uint64{in.Addr}
			}
		}
	}
}

// TraceOrigins transitively follows copy and arithmetic chains from a use to
// the set of "origin" instructions: those that are not simple moves or
// register arithmetic over a single source (e.g. loads, la/leapc, call
// results). It answers malloc-site provenance questions (§3.3.3).
func (du *DefUse) TraceOrigins(g *cfg.Graph, useAddr uint64, reg isa.Register) []uint64 {
	seen := map[duKey]bool{}
	var origins []uint64
	var walk func(addr uint64, r isa.Register)
	walk = func(addr uint64, r isa.Register) {
		key := duKey{addr, r}
		if seen[key] {
			return
		}
		seen[key] = true
		defs := du.DefsOf(addr, r)
		if len(defs) == 0 {
			origins = append(origins, 0) // unknown/boundary origin
			return
		}
		for _, d := range defs {
			blk := g.BlockAt(d)
			if blk == nil {
				origins = append(origins, d)
				continue
			}
			var def *isa.Instr
			for i := range blk.Instrs {
				if blk.Instrs[i].Addr == d {
					def = &blk.Instrs[i]
					break
				}
			}
			if def == nil {
				origins = append(origins, d)
				continue
			}
			switch def.Op {
			case isa.OpMovRR:
				walk(d, def.Rb)
			case isa.OpAddRI, isa.OpSubRI, isa.OpMulRI, isa.OpAndRI,
				isa.OpOrRI, isa.OpXorRI, isa.OpShlRI, isa.OpShrRI:
				walk(d, def.Rd)
			case isa.OpLea:
				walk(d, def.Rb)
			default:
				origins = append(origins, d)
			}
		}
	}
	walk(useAddr, reg)
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	// dedupe
	out := origins[:0]
	for i, v := range origins {
		if i == 0 || v != origins[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// StackSize returns each function's static frame size: the constant
// subtracted from SP in the prologue plus push slots (§3.3.2's stack-size
// analysis). Functions without a recognisable prologue report 0.
func StackSize(fn *cfg.Function) uint64 {
	if len(fn.Blocks) == 0 {
		return 0
	}
	var size uint64
	entry := fn.Blocks[0]
	for i := range entry.Instrs {
		in := &entry.Instrs[i]
		switch {
		case in.Op == isa.OpPush:
			size += 8
		case in.Op == isa.OpSubRI && in.Rd == isa.SP && in.Imm > 0:
			size += uint64(in.Imm)
		}
	}
	return size
}
