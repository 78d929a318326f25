package analysis

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// Loop is a natural loop identified inside a function.
type Loop struct {
	Header uint64          // block address of the loop header
	Latch  uint64          // block address holding the back edge
	Blocks map[uint64]bool // all block addresses in the loop body

	// Induction describes the detected basic induction variable, if any:
	// a register incremented by a constant stride each iteration and
	// bounded by a compare at the latch or header.
	Induction *Induction
}

// Induction is a basic induction variable with a static trip bound.
type Induction struct {
	Reg    isa.Register
	Stride int64
	// Bound is the compared-against constant; Bounded reports whether a
	// bounding compare was found.
	Bound   int64
	Bounded bool
}

// AccessClass classifies a memory access inside a loop for the SCEV-guided
// check optimisation (§3.3.2).
type AccessClass uint8

// Access classes.
const (
	// AccessUnknown: no useful structure; must be checked every time.
	AccessUnknown AccessClass = iota
	// AccessInvariant: the address does not change across iterations;
	// one check at loop entry suffices.
	AccessInvariant
	// AccessInduction: the address is base + induction*scale with an
	// invariant base and a bounded induction variable; checking the
	// first and last addresses covers the whole range.
	AccessInduction
)

func (c AccessClass) String() string {
	switch c {
	case AccessInvariant:
		return "invariant"
	case AccessInduction:
		return "induction"
	}
	return "unknown"
}

// LoopAnalysis holds loops and per-access classifications for one module.
type LoopAnalysis struct {
	Loops []*Loop
	// Class maps memory-access instruction addresses to their class.
	Class map[uint64]AccessClass
	// loopOf maps block start addresses to the innermost loop.
	loopOf map[uint64]*Loop
}

// ClassOf returns the classification of a memory access (AccessUnknown for
// accesses outside loops or without structure).
func (la *LoopAnalysis) ClassOf(instrAddr uint64) AccessClass { return la.Class[instrAddr] }

// AnalyzeLoops finds natural loops in every function of g and classifies
// loop memory accesses.
func AnalyzeLoops(g *cfg.Graph) *LoopAnalysis {
	la := &LoopAnalysis{
		Class:  map[uint64]AccessClass{},
		loopOf: map[uint64]*Loop{},
	}
	for _, fn := range g.Funcs {
		la.analyzeFunc(g, fn)
	}
	return la
}

func (la *LoopAnalysis) analyzeFunc(g *cfg.Graph, fn *cfg.Function) {
	if len(fn.Blocks) == 0 {
		return
	}
	inFunc := map[uint64]*cfg.BasicBlock{}
	preds := map[uint64][]uint64{}
	for _, b := range fn.Blocks {
		inFunc[b.Start] = b
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if _, ok := inFunc[s]; ok {
				preds[s] = append(preds[s], b.Start)
			}
		}
	}

	// Back edge detection via DFS: an edge u->v is a back edge when v is
	// on the current DFS stack (v dominates u in reducible graphs; this
	// approximation suffices for compiler-shaped code).
	state := map[uint64]int{} // 0 unvisited, 1 on stack, 2 done
	type edge struct{ from, to uint64 }
	var backEdges []edge
	var dfs func(u uint64)
	dfs = func(u uint64) {
		state[u] = 1
		if b := inFunc[u]; b != nil {
			for _, s := range b.Succs {
				if _, ok := inFunc[s]; !ok {
					continue
				}
				switch state[s] {
				case 0:
					dfs(s)
				case 1:
					backEdges = append(backEdges, edge{u, s})
				}
			}
		}
		state[u] = 2
	}
	dfs(fn.Blocks[0].Start)
	sort.Slice(backEdges, func(i, j int) bool { return backEdges[i].to < backEdges[j].to })

	for _, e := range backEdges {
		loop := &Loop{Header: e.to, Latch: e.from, Blocks: map[uint64]bool{e.to: true}}
		// Natural loop body: nodes reaching the latch without passing
		// the header.
		stack := []uint64{e.from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if loop.Blocks[n] {
				continue
			}
			loop.Blocks[n] = true
			for _, p := range preds[n] {
				stack = append(stack, p)
			}
		}
		loop.Induction = findInduction(inFunc, loop)
		la.Loops = append(la.Loops, loop)
		for b := range loop.Blocks {
			// Innermost wins: later (inner) loops overwrite only if
			// smaller.
			if cur := la.loopOf[b]; cur == nil || len(loop.Blocks) < len(cur.Blocks) {
				la.loopOf[b] = loop
			}
		}
	}

	// Classify memory accesses in loops.
	for _, b := range fn.Blocks {
		loop := la.loopOf[b.Start]
		if loop == nil {
			continue
		}
		defs := loopDefs(inFunc, loop)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.IsMemAccess() {
				continue
			}
			la.Class[in.Addr] = classify(in, loop, defs)
		}
	}
}

// loopDefs returns the registers defined anywhere inside the loop body.
func loopDefs(inFunc map[uint64]*cfg.BasicBlock, loop *Loop) RegMask {
	var defs RegMask
	for addr := range loop.Blocks {
		b := inFunc[addr]
		if b == nil {
			continue
		}
		for i := range b.Instrs {
			for _, d := range b.Instrs[i].RegDefs(nil) {
				defs = defs.With(d)
			}
		}
	}
	return defs
}

// findInduction looks for the canonical induction pattern: a register
// updated exactly once in the loop by add/sub with a constant, compared
// against a constant by the latch or header block.
func findInduction(inFunc map[uint64]*cfg.BasicBlock, loop *Loop) *Induction {
	type update struct {
		reg    isa.Register
		stride int64
		count  int
	}
	updates := map[isa.Register]*update{}
	for addr := range loop.Blocks {
		b := inFunc[addr]
		if b == nil {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case isa.OpAddRI, isa.OpSubRI:
				u := updates[in.Rd]
				if u == nil {
					u = &update{reg: in.Rd}
					updates[in.Rd] = u
				}
				u.count++
				if in.Op == isa.OpAddRI {
					u.stride = in.Imm
				} else {
					u.stride = -in.Imm
				}
			default:
				// Any other def disqualifies the register.
				for _, d := range in.RegDefs(nil) {
					if u := updates[d]; u != nil {
						u.count += 100
					} else {
						updates[d] = &update{reg: d, count: 100}
					}
				}
			}
		}
	}
	var iv *update
	for _, u := range updates {
		if u.count == 1 {
			if iv != nil {
				return nil // multiple candidates: ambiguous
			}
			iv = u
		}
	}
	if iv == nil {
		return nil
	}
	ind := &Induction{Reg: iv.reg, Stride: iv.stride}
	// Bounding compare in latch or header.
	for _, where := range []uint64{loop.Latch, loop.Header} {
		b := inFunc[where]
		if b == nil {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == isa.OpCmpRI && in.Rd == iv.reg {
				ind.Bound = in.Imm
				ind.Bounded = true
			}
		}
	}
	return ind
}

// classify determines the access class of one loop memory access.
func classify(in *isa.Instr, loop *Loop, loopDefs RegMask) AccessClass {
	switch in.MemAddr() {
	case isa.AddrBase:
		// [rb+disp]: invariant iff rb is not redefined in the loop.
		if !loopDefs.Has(in.Rb) {
			return AccessInvariant
		}
	case isa.AddrIndex8, isa.AddrIndex1:
		// [rb+ri*s+disp]: induction-linked iff rb invariant and ri is
		// the bounded induction variable.
		if loopDefs.Has(in.Rb) {
			return AccessUnknown
		}
		if loop.Induction != nil && loop.Induction.Bounded &&
			in.Ri == loop.Induction.Reg {
			return AccessInduction
		}
		if !loopDefs.Has(in.Ri) {
			return AccessInvariant
		}
	}
	return AccessUnknown
}
