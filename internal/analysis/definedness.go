package analysis

import (
	"repro/internal/cfg"
	"repro/internal/isa"
)

// Definedness is the block-local taint lattice behind JMSan's sink-directed
// checking: for every load it decides whether the loaded value can reach a
// *definedness sink* — a use where an undefined value changes behaviour:
//
//   - the condition of a conditional branch (any flag-setting instruction
//     whose flags the block terminator consumes, and every cmp/test);
//   - an address computation (base or index register of a memory access, or
//     the target of an indirect control transfer);
//   - a service-call argument (trap/syscall/call argument registers).
//
// Loads whose destination provably reaches no sink within the block and is
// dead at the block boundary need no definedness check (memcheck's lazy
// reporting discipline: copying garbage around is legal, acting on it is
// not). Taint propagates through register copies and arithmetic; it does
// NOT propagate through memory — a store of an undefined value marks the
// target bytes defined (see DESIGN.md §6 for the soundness discussion).
type Definedness struct {
	// feedsSink maps load instruction addresses to whether the loaded
	// value may reach a sink. Loads absent from the map were not analysed
	// (conservatively treated as feeding a sink).
	feedsSink map[uint64]bool
}

// FeedsSink reports whether the load at addr may pass its value to a
// definedness sink. Unknown addresses conservatively report true.
func (d *Definedness) FeedsSink(addr uint64) bool {
	if v, ok := d.feedsSink[addr]; ok {
		return v
	}
	return true
}

// ComputeDefinedness runs the sink-reachability taint analysis over every
// load in g. live supplies block-boundary liveness: a tainted register that
// is still live when the block ends may feed a sink in a successor, so the
// load conservatively counts as sink-feeding.
func ComputeDefinedness(g *cfg.Graph, live *Liveness) *Definedness {
	d := &Definedness{feedsSink: map[uint64]bool{}}
	for _, blk := range g.Blocks {
		d.analyzeBlock(blk, live)
	}
	return d
}

func (d *Definedness) analyzeBlock(blk *cfg.BasicBlock, live *Liveness) {
	// The index of the last flag-setting instruction: only its flags reach
	// the conditional terminator (if any).
	lastFlagSetter := -1
	condTerm := false
	if n := len(blk.Instrs); n > 0 {
		condTerm = blk.Instrs[n-1].IsCondBranch()
		for i := range blk.Instrs {
			if blk.Instrs[i].SetsFlags() {
				lastFlagSetter = i
			}
		}
	}
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if !in.IsMemAccess() || in.IsStore() {
			continue
		}
		d.feedsSink[in.Addr] = traceTaint(blk, live, i, in.Rd,
			lastFlagSetter, condTerm)
	}
}

// traceTaint propagates the taint seeded at instruction index i (register
// seed freshly loaded) forward through the block and reports whether it
// reaches a sink.
func traceTaint(blk *cfg.BasicBlock, live *Liveness, i int, seed isa.Register,
	lastFlagSetter int, condTerm bool) bool {

	var tainted RegMask
	tainted = tainted.With(seed)
	var usesBuf, defsBuf [8]isa.Register
	for j := i + 1; j < len(blk.Instrs) && tainted != 0; j++ {
		in := &blk.Instrs[j]
		usesTaint := false
		for _, u := range in.RegUses(usesBuf[:0]) {
			if tainted.Has(u) {
				usesTaint = true
				break
			}
		}
		if usesTaint && isSinkUse(in, tainted, j == lastFlagSetter && condTerm) {
			return true
		}
		// Transfer: value-propagating instructions taint their destination
		// when any source is tainted; every other definition kills taint.
		switch in.Op {
		case isa.OpMovRR, isa.OpNot, isa.OpNeg,
			isa.OpAddRR, isa.OpSubRR, isa.OpMulRR, isa.OpDivRR, isa.OpRemRR,
			isa.OpAndRR, isa.OpOrRR, isa.OpXorRR, isa.OpShlRR, isa.OpShrRR,
			isa.OpAddRI, isa.OpSubRI, isa.OpMulRI, isa.OpAndRI, isa.OpOrRI,
			isa.OpXorRI, isa.OpShlRI, isa.OpShrRI,
			isa.OpLea, isa.OpLeaX, isa.OpLeaXB:
			if usesTaint {
				tainted = tainted.With(in.Rd)
			} else {
				tainted = tainted.Without(in.Rd)
			}
		case isa.OpCall, isa.OpCallI:
			// The callee clobbers the caller-saved set; whatever it leaves
			// there is no longer the loaded value.
			tainted &^= CallerSaved
		default:
			for _, def := range in.RegDefs(defsBuf[:0]) {
				tainted = tainted.Without(def)
			}
		}
	}
	if tainted == 0 {
		return false
	}
	// Taint survives to the block boundary: sink-feeding iff any tainted
	// register is live there (it may reach a sink in a successor). The
	// terminator's live-in is the best boundary point we track.
	if n := len(blk.Instrs); n > 0 {
		boundary := live.LiveIn(blk.Instrs[n-1].Addr).Regs
		// The terminator's own uses were already inspected above.
		return boundary&tainted != 0
	}
	return true
}

// isSinkUse reports whether instruction in, which uses at least one tainted
// register, constitutes a definedness sink. flagsReachBranch is true when in
// is the last flag setter before a conditional terminator.
func isSinkUse(in *isa.Instr, tainted RegMask, flagsReachBranch bool) bool {
	switch in.Op {
	case isa.OpCmpRR, isa.OpCmpRI, isa.OpTestRR:
		// Comparisons exist only to steer control flow.
		return true
	case isa.OpJmpI, isa.OpCallI:
		return tainted.Has(in.Rd)
	case isa.OpTrap:
		return tainted&maskOf(isa.R1, isa.R2, isa.R3, isa.R4, isa.R5) != 0
	case isa.OpSyscall:
		return tainted&maskOf(isa.R0, isa.R1, isa.R2, isa.R3, isa.R4, isa.R5) != 0
	case isa.OpCall:
		// Arguments flow into a callee that may branch on them.
		return tainted&ArgRegs != 0
	}
	if in.IsMemAccess() {
		// Address computation from an undefined value.
		if tainted.Has(in.Rb) || in.MemAddr().Indexed() && tainted.Has(in.Ri) {
			return true
		}
		// A store of a tainted *value* is not a sink (no memory V-bit
		// propagation; the write defines the target bytes).
		return false
	}
	if in.SetsFlags() && flagsReachBranch {
		return true
	}
	return false
}
