// Package analysis provides the enhanced static analyses of Janitizer's
// static analyzer (Fig. 2a, §3.3.2–§3.3.3): register and arithmetic-flag
// liveness (intra- and inter-procedural), SCEV-style loop-bound analysis,
// stack-canary detection, def-use (diffuse-chain) tracing and stack-size
// analysis. Security plug-ins (JASan, JCFI) consume these results through
// rewrite rules.
package analysis

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// RegMask is a bit set of registers (bit i = register ri).
type RegMask uint16

// Has reports whether r is in the mask.
func (m RegMask) Has(r isa.Register) bool { return m&(1<<r) != 0 }

// With returns the mask including r.
func (m RegMask) With(r isa.Register) RegMask { return m | 1<<r }

// Without returns the mask excluding r.
func (m RegMask) Without(r isa.Register) RegMask { return m &^ (1 << r) }

// Count returns the number of registers in the mask.
func (m RegMask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Regs returns the registers in the mask in ascending order.
func (m RegMask) Regs() []isa.Register {
	var out []isa.Register
	for r := isa.Register(0); r < isa.NumRegs; r++ {
		if m.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// Calling-convention register classes.
var (
	// CallerSaved are clobbered by calls: r0 (return), r1–r5 (args),
	// r6–r11 (temps).
	CallerSaved = maskOf(isa.R0, isa.R1, isa.R2, isa.R3, isa.R4, isa.R5,
		isa.R6, isa.R7, isa.R8, isa.R9, isa.R10, isa.R11)
	// CalleeSaved must be preserved across calls.
	CalleeSaved = maskOf(isa.R12, isa.R13, isa.FP)
	// ArgRegs carry the first five arguments.
	ArgRegs = maskOf(isa.R1, isa.R2, isa.R3, isa.R4, isa.R5)
	// AllRegs is every register.
	AllRegs = RegMask(0xffff)
)

func maskOf(regs ...isa.Register) RegMask {
	var m RegMask
	for _, r := range regs {
		m = m.With(r)
	}
	return m
}

// LivePoint is the liveness state on entry to one instruction: registers
// whose current values may still be read, and whether the arithmetic flags
// may still be read. Instrumentation inserted immediately before the
// instruction must preserve exactly this state.
type LivePoint struct {
	Regs  RegMask
	Flags bool
}

// Liveness holds per-instruction live-in information for one module graph.
type Liveness struct {
	points map[uint64]LivePoint
	// Clobbers maps function entry addresses to the callee-saved
	// registers the function may leave clobbered (convention
	// violations, §4.1.2). Populated by the inter-procedural pass.
	Clobbers map[uint64]RegMask
	// Relied maps function entry addresses to the caller-saved registers
	// ipa-ra-style callers keep live across calls into the function
	// (§4.1.2); the inter-procedural pass folds them into every point of
	// the function so FreeRegs never hands them out.
	Relied map[uint64]RegMask
}

// LiveIn returns the live-in point for the instruction at addr. Unknown
// addresses conservatively report everything live.
func (l *Liveness) LiveIn(addr uint64) LivePoint {
	if p, ok := l.points[addr]; ok {
		return p
	}
	return LivePoint{Regs: AllRegs, Flags: true}
}

// FreeRegs returns up to n registers that are dead at addr (safe as
// instrumentation scratch without saving), excluding SP, in ascending
// order. It never returns SP or FP.
func (l *Liveness) FreeRegs(addr uint64, n int) []isa.Register {
	live := l.LiveIn(addr).Regs
	var out []isa.Register
	for r := isa.Register(0); r < isa.NumRegs && len(out) < n; r++ {
		if r == isa.SP || r == isa.FP {
			continue
		}
		if !live.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// ComputeLiveness performs backward may-live dataflow over every function in
// g. Boundary assumptions are conservative (over-approximate):
//
//   - at returns, r0 (result), SP and the callee-saved set are live;
//   - at calls, the argument registers and SP are live; caller-saved
//     registers are treated as clobbered by the callee *unless* the
//     inter-procedural pass (interproc=true) found the specific callee
//     clobbers fewer — and callee-saved registers a convention-violating
//     callee clobbers are added back as live (paper §4.1.2);
//   - at indirect CTIs and edges leaving the recovered graph, everything
//     (all registers and flags) is live.
func ComputeLiveness(g *cfg.Graph, interproc bool) *Liveness {
	l := &Liveness{
		points:   map[uint64]LivePoint{},
		Clobbers: map[uint64]RegMask{},
		Relied:   map[uint64]RegMask{},
	}
	if interproc {
		l.Clobbers = ComputeClobbers(g)
	}
	for _, fn := range g.Funcs {
		l.computeFunc(g, fn)
	}
	if interproc {
		// ipa-ra reliance (§4.1.2): registers a caller keeps live across
		// a call must stay live throughout the callee's extent, or
		// instrumentation scratch choices break the caller.
		l.Relied = ReliedUpon(g, l)
		for _, fn := range g.Funcs {
			mask := l.Relied[fn.Entry]
			if mask == 0 {
				continue
			}
			for _, blk := range fn.Blocks {
				for i := range blk.Instrs {
					a := blk.Instrs[i].Addr
					p := l.points[a]
					p.Regs |= mask
					l.points[a] = p
				}
			}
		}
	}
	return l
}

// computeFunc runs the backward fixpoint over one function's blocks.
func (l *Liveness) computeFunc(g *cfg.Graph, fn *cfg.Function) {
	if len(fn.Blocks) == 0 {
		return
	}
	// liveOut per block start address.
	liveOut := map[uint64]LivePoint{}
	inState := map[uint64]LivePoint{} // live-in of each block

	// Map from block start to blocks within this function for quick
	// membership checks; edges leaving the function (calls handled at the
	// instruction level; tail jumps to other functions) are boundaries.
	inFunc := map[uint64]*cfg.BasicBlock{}
	for _, b := range fn.Blocks {
		inFunc[b.Start] = b
	}

	// Iterate to fixpoint (blocks processed in reverse address order for
	// faster convergence on reducible flow).
	blocks := append([]*cfg.BasicBlock(nil), fn.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Start > blocks[j].Start })

	changed := true
	for rounds := 0; changed && rounds < 64; rounds++ {
		changed = false
		for _, b := range blocks {
			out := l.blockBoundary(b, inFunc, inState)
			in := l.flowBlock(b, out)
			old, ok := inState[b.Start]
			if !ok || old != in {
				inState[b.Start] = in
				changed = true
			}
			liveOut[b.Start] = out
		}
	}
	// Final pass to record per-instruction points.
	for _, b := range blocks {
		l.flowBlock(b, liveOut[b.Start])
	}
}

// blockBoundary computes the live-out state of block b from its successors.
func (l *Liveness) blockBoundary(b *cfg.BasicBlock,
	inFunc map[uint64]*cfg.BasicBlock, inState map[uint64]LivePoint) LivePoint {

	term := b.Terminator()
	switch term.Op {
	case isa.OpRet:
		// A `push rX; ret` idiom (the ld.so lazy-resolver pattern,
		// §4.2.3) is a return used as an indirect CALL: the argument
		// registers of the function being entered are live, so the
		// normal return-boundary assumption would be unsound. Treat it
		// like an unknown indirect transfer.
		if n := len(b.Instrs); n >= 2 && b.Instrs[n-2].Op == isa.OpPush {
			return LivePoint{Regs: AllRegs, Flags: true}
		}
		return LivePoint{Regs: maskOf(isa.R0, isa.SP).With(isa.FP) | CalleeSaved}
	case isa.OpHlt:
		return LivePoint{}
	case isa.OpJmpI:
		if len(b.Succs) > 0 {
			// Jump table with known targets: union of target live-ins,
			// but stay conservative about targets we may have missed.
			out := LivePoint{Regs: maskOf(isa.SP)}
			for _, s := range b.Succs {
				if _, ok := inFunc[s]; ok {
					p := inState[s]
					out.Regs |= p.Regs
					out.Flags = out.Flags || p.Flags
				} else {
					return LivePoint{Regs: AllRegs, Flags: true}
				}
			}
			return out
		}
		// Unknown indirect target: everything live (paper §3.3.2).
		return LivePoint{Regs: AllRegs, Flags: true}
	}

	out := LivePoint{}
	for _, s := range b.Succs {
		if _, ok := inFunc[s]; ok {
			if p, seen := inState[s]; seen {
				out.Regs |= p.Regs
				out.Flags = out.Flags || p.Flags
			}
			continue
		}
		// Successor outside the function.
		if term.Op == isa.OpCall || term.Op == isa.OpCallI {
			// The call-fallthrough edge is handled at the call
			// instruction in flowBlock; the callee-entry edge
			// contributes argument liveness there too.
			continue
		}
		// Tail jump / branch out of the recovered function: conservative.
		out = LivePoint{Regs: AllRegs, Flags: true}
	}
	return out
}

// flowBlock propagates liveness backward through b from live-out `out`,
// recording per-instruction live-in points, and returns the block live-in.
func (l *Liveness) flowBlock(b *cfg.BasicBlock, out LivePoint) LivePoint {
	cur := out
	var usesBuf, defsBuf [8]isa.Register
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		switch in.Op {
		case isa.OpCall, isa.OpCallI:
			// live = (liveAfterCall - clobbered) + uses
			clob := CallerSaved
			if in.Op == isa.OpCall {
				if extra, ok := l.Clobbers[in.Target()]; ok {
					// Convention-violating callee: its clobbered
					// callee-saved regs do NOT carry values across.
					// (They are dead after the call from the
					// caller's perspective — the violation means
					// the CALLER reads them, modelled by ipa-ra
					// callers keeping them live across the call:
					// treat them as NOT clobbered so their
					// pre-call values stay live.)
					clob = clob &^ extra
					clob |= 0 // keep shape explicit
				}
			} else {
				// Unknown callee: conservatively assume it may rely
				// on anything and clobber nothing for liveness
				// purposes (over-approximation keeps soundness).
				clob = 0
			}
			cur.Regs = (cur.Regs &^ clob) | ArgRegs | maskOf(isa.SP)
			if in.Op == isa.OpCallI {
				cur.Regs = cur.Regs.With(in.Rd) // the call target register
			}
			cur.Flags = false // calls are flag boundaries
		default:
			for _, d := range in.RegDefs(defsBuf[:0]) {
				cur.Regs = cur.Regs.Without(d)
			}
			for _, u := range in.RegUses(usesBuf[:0]) {
				cur.Regs = cur.Regs.With(u)
			}
			if in.SetsFlags() {
				cur.Flags = false
			}
			if in.ReadsFlags() {
				cur.Flags = true
			}
		}
		l.points[in.Addr] = cur
	}
	return cur
}

// ComputeClobbers finds, for each function, the callee-saved registers it
// may clobber without restoring — the §4.1.2 convention violations found in
// hand-written assembly. The result propagates over the direct call graph to
// a fixpoint.
func ComputeClobbers(g *cfg.Graph) map[uint64]RegMask {
	clobbers := map[uint64]RegMask{}
	// Direct analysis: a callee-saved register is clobbered if the
	// function writes it but never pushes it (no save/restore discipline).
	for _, fn := range g.Funcs {
		var written, pushed RegMask
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == isa.OpPush {
					pushed = pushed.With(in.Rd)
					continue
				}
				for _, d := range in.RegDefs(nil) {
					written = written.With(d)
				}
			}
		}
		if c := written & CalleeSaved &^ pushed &^ maskOf(isa.SP); c != 0 {
			clobbers[fn.Entry] = c
		}
	}
	// Propagate through direct calls: a caller of a clobberer clobbers
	// too, unless it saves the register itself.
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs {
			var pushed RegMask
			agg := clobbers[fn.Entry]
			for _, b := range fn.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op == isa.OpPush {
						pushed = pushed.With(in.Rd)
					}
					if in.Op == isa.OpCall {
						if c, ok := clobbers[in.Target()]; ok {
							agg |= c
						}
					}
				}
			}
			agg &^= pushed
			if agg != clobbers[fn.Entry] && agg != 0 {
				clobbers[fn.Entry] = agg
				changed = true
			}
		}
	}
	return clobbers
}
