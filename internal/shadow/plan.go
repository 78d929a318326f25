// Package shadow is the core the shadow-memory sanitizers (JASan, JMSan,
// JTSan) share. Each of them is one recipe: a static pass that elides
// checks it can prove redundant and records a replayable claim for each, an
// inline shadow check on every remaining access, and a trap handler that
// confirms the suspicion and reports. This package holds the parts of that
// recipe that do not depend on what the shadow means:
//
//   - Dedup, the same-address elision planner of the static pass;
//   - CheckPlan, the operand address closure and the bitmap window check
//     of the emitters;
//   - Bitmap, the one-bit-per-byte shadow, and Family, the trap-code
//     encoder and its per-register installer, of the runtimes.
//
// The claims Dedup records are re-derived by internal/vsa's verifier from
// its own copy of the side conditions, so a planner bug cannot pass both.
package shadow

import (
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vsa"
)

// Dedup plans same-address elisions within one basic block. An access is
// elided against an earlier anchor access when both have the same
// addressing form, it is no wider than the anchor, no instruction in
// between redefines its address registers, the same definitions reach both
// uses, and no barrier lies in between. The anchor keeps its check.
type Dedup struct {
	// Kind is the claim kind recorded for each elision.
	Kind vsa.ClaimKind
	// Barrier reports whether an instruction invalidates every pending
	// anchor (a shadow rewrite, a possible free, a frame adjustment).
	Barrier func(in *isa.Instr) bool
	// Skip, when set, reports whether a memory access takes no part in the
	// scan: it neither anchors nor is elided.
	Skip func(in *isa.Instr) bool
	// StoresAnchor restricts anchors to stores and elisions to loads: a
	// store defines the bytes a later load of the same address reads.
	StoresAnchor bool
}

// Plan scans blk in order, calls elide with each elided access and its
// anchor, and records one claim per elision into sc's proof set.
func (d *Dedup) Plan(sc *core.StaticContext, blk *cfg.BasicBlock,
	elide func(instr, anchor uint64)) {
	if blk.Fn == nil {
		return
	}
	type anchorKey struct {
		shape  isa.Addressing
		rb, ri isa.Register
		disp   int32
	}
	type anchorInfo struct {
		idx   int
		addr  uint64
		width int
	}
	anchors := map[anchorKey]anchorInfo{}
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if d.Barrier(in) {
			clear(anchors)
			continue
		}
		if !in.IsMemAccess() || d.Skip != nil && d.Skip(in) {
			continue
		}
		shape := in.MemAddr()
		k := anchorKey{shape: shape, rb: in.Rb, disp: in.Disp}
		if shape.Indexed() {
			k.ri = in.Ri
		}
		self := anchorInfo{idx: i, addr: in.Addr, width: in.AccessWidth()}
		if d.StoresAnchor && in.IsStore() {
			anchors[k] = self
			continue
		}
		if a, have := anchors[k]; have && self.width <= a.width &&
			sameAddress(sc, blk, a.idx, i, shape) {
			elide(in.Addr, a.addr)
			sc.Proofs.Record(blk.Fn.Entry, vsa.Claim{
				Kind: d.Kind, Block: blk.Start, Instr: in.Addr,
				Width: self.width, Prev: a.addr,
			})
			continue
		}
		if !d.StoresAnchor {
			anchors[k] = self
		}
	}
}

// sameAddress checks that the access at curIdx computes the anchor's
// address: no instruction in between redefines the address registers, and
// (belt and braces, via the reaching-definition analysis) the same
// definitions reach both uses.
func sameAddress(sc *core.StaticContext, blk *cfg.BasicBlock,
	anchorIdx, curIdx int, shape isa.Addressing) bool {
	in := &blk.Instrs[curIdx]
	regs := []isa.Register{in.Rb, in.Ri}
	if !shape.Indexed() {
		regs = regs[:1]
	}
	for j := anchorIdx + 1; j < curIdx; j++ {
		for _, d := range blk.Instrs[j].RegDefs(nil) {
			for _, r := range regs {
				if d == r {
					return false
				}
			}
		}
	}
	anchor := blk.Instrs[anchorIdx].Addr
	for _, r := range regs {
		if !sameDefs(sc.DefUse.DefsOf(anchor, r), sc.DefUse.DefsOf(in.Addr, r)) {
			return false
		}
	}
	return true
}

// sameDefs compares two reaching-definition sets.
func sameDefs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[uint64]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}
