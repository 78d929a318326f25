package vsa

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/rules"
)

// Violation is one failed proof-replay check.
type Violation struct {
	Module string
	Func   uint64
	Instr  uint64
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: func %#x instr %#x: %s", v.Module, v.Func, v.Instr, v.Msg)
}

// Verify replays the proof artifact ps against mod: it rebuilds the CFG,
// re-runs the analysis from scratch (no producer state is reused), and
// checks every claim by re-deriving its bounds and side conditions. rf is
// the rule file the same static pass emitted; every VSA-backed rule must be
// covered by a claim and vice versa. The returned slice is empty iff every
// elision and narrowing decision is sound under the analysis' documented
// axioms (which cmd/jvet discharges separately via the per-function Assumes
// sets).
func Verify(mod *obj.Module, ps *ProofSet, rf *rules.File) []Violation {
	g, err := cfg.Build(mod)
	if err != nil {
		return []Violation{{Module: mod.Name, Msg: "cfg: " + err.Error()}}
	}
	canaries := analysis.FindCanaries(g)
	res := Analyze(mod, g, canaries)
	v := &verifier{mod: mod, res: res, canaries: canaries}

	claimAt := map[uint64]*Claim{}
	for i := range ps.Funcs {
		fp := &ps.Funcs[i]
		v.checkFunc(fp)
		for j := range fp.Claims {
			c := &fp.Claims[j]
			v.checkClaim(fp, c)
			if prev, dup := claimAt[c.Instr]; dup {
				v.failc(fp.Entry, c, "duplicate claim (also %s)", prev.Kind)
			}
			claimAt[c.Instr] = c
		}
	}
	v.crossCheck(ps, rf, claimAt)
	return v.out
}

type verifier struct {
	mod      *obj.Module
	res      *Result
	canaries []analysis.CanarySite
	out      []Violation
}

func (v *verifier) fail(fn, instr uint64, format string, args ...any) {
	v.out = append(v.out, Violation{
		Module: v.mod.Name, Func: fn, Instr: instr,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (v *verifier) failc(fn uint64, c *Claim, format string, args ...any) {
	v.fail(fn, c.Instr, "%s claim: %s", c.Kind, fmt.Sprintf(format, args...))
}

// checkFunc validates a function proof's metadata against the fresh
// analysis: the function exists, its frame facts match, and every derived
// assumption is declared (so the replay tool can discharge the full set).
func (v *verifier) checkFunc(fp *FuncProof) {
	fn := v.res.G.FuncAt(fp.Entry)
	if fn == nil || fn.Entry != fp.Entry {
		v.fail(fp.Entry, 0, "no function at claimed entry")
		return
	}
	if v.res.Poisoned[fp.Entry] && len(fp.Claims) > 0 {
		v.fail(fp.Entry, 0, "claims in a poisoned function (interior entry points)")
	}
	if fp.FrameSize != v.res.FrameSizes[fp.Entry] {
		v.fail(fp.Entry, 0, "frame size mismatch: claimed %d, derived %d",
			fp.FrameSize, v.res.FrameSizes[fp.Entry])
	}
	derived := v.res.CanarySlots[fp.Entry]
	if len(derived) != len(fp.Canaries) {
		v.fail(fp.Entry, 0, "canary slot mismatch: claimed %v, derived %v",
			fp.Canaries, derived)
	} else {
		for i := range derived {
			if derived[i] != fp.Canaries[i] {
				v.fail(fp.Entry, 0, "canary slot mismatch: claimed %v, derived %v",
					fp.Canaries, derived)
				break
			}
		}
	}
	declared := map[string]bool{}
	for _, a := range fp.Assumes {
		declared[a] = true
	}
	for _, a := range v.res.Assumes[fp.Entry] {
		if !declared[a] {
			v.fail(fp.Entry, 0, "undeclared assumption %q", a)
		}
	}
}

// locate finds the claim's block and instruction.
func (v *verifier) locate(fp *FuncProof, c *Claim) (*cfg.BasicBlock, *isa.Instr) {
	blk := v.res.G.Blocks[c.Block]
	if blk == nil {
		v.failc(fp.Entry, c, "no block at %#x", c.Block)
		return nil, nil
	}
	if blk.Fn == nil || blk.Fn.Entry != fp.Entry {
		v.failc(fp.Entry, c, "block %#x not in claimed function", c.Block)
		return nil, nil
	}
	for i := range blk.Instrs {
		if blk.Instrs[i].Addr == c.Instr {
			return blk, &blk.Instrs[i]
		}
	}
	v.failc(fp.Entry, c, "no instruction at %#x in block %#x", c.Instr, c.Block)
	return nil, nil
}

func (v *verifier) checkClaim(fp *FuncProof, c *Claim) {
	blk, in := v.locate(fp, c)
	if in == nil {
		return
	}
	switch c.Kind {
	case ClaimFrame:
		v.checkFrame(fp, c, blk, in)
	case ClaimGlobal:
		v.checkGlobal(fp, c, blk, in)
	case ClaimDedup:
		v.checkDedup(fp, c, blk, in)
	case ClaimDefInit:
		v.checkDefInit(fp, c, blk, in)
	case ClaimNoEscape:
		v.checkNoEscape(fp, c, blk, in)
	case ClaimJumpSingle, ClaimJumpTable:
		v.checkJump(fp, c, blk, in)
	default:
		v.failc(fp.Entry, c, "unknown claim kind")
	}
}

// accessState recomputes the abstract state right before the claimed
// instruction.
func (v *verifier) accessState(blk *cfg.BasicBlock, addr uint64) *State {
	var out *State
	v.res.WalkBlock(blk, func(i int, in *isa.Instr, st *State) {
		if in.Addr == addr {
			out = st.clone()
		}
	})
	return out
}

func (v *verifier) checkFrame(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	if !in.IsMemAccess() || in.AccessWidth() != c.Width {
		v.failc(fp.Entry, c, "not a %d-byte memory access", c.Width)
		return
	}
	st := v.accessState(blk, c.Instr)
	if st == nil {
		v.failc(fp.Entry, c, "no analysed state for block")
		return
	}
	lo, hi, ok := v.res.FrameClaim(fp.Entry, AddrValue(st, in), c.Width)
	if !ok {
		v.failc(fp.Entry, c, "re-derivation failed: access not provably in-frame")
		return
	}
	if lo < c.Lo || hi > c.Hi {
		v.failc(fp.Entry, c, "derived range [%d,%d] outside claimed [%d,%d]",
			lo, hi, c.Lo, c.Hi)
	}
	// The claimed range itself must sit inside the frame, clear of the
	// canary slots (not just the derived one).
	fs := v.res.FrameSizes[fp.Entry]
	if c.Lo < -fs || c.Hi > -1 {
		v.failc(fp.Entry, c, "claimed range [%d,%d] outside frame [%d,-1]",
			c.Lo, c.Hi, -fs)
	}
	for _, slot := range v.res.CanarySlots[fp.Entry] {
		if c.Hi >= slot && c.Lo <= slot+7 {
			v.failc(fp.Entry, c, "claimed range [%d,%d] overlaps canary slot %d",
				c.Lo, c.Hi, slot)
		}
	}
}

func (v *verifier) checkGlobal(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	if !in.IsMemAccess() || in.AccessWidth() != c.Width {
		v.failc(fp.Entry, c, "not a %d-byte memory access", c.Width)
		return
	}
	st := v.accessState(blk, c.Instr)
	if st == nil {
		v.failc(fp.Entry, c, "no analysed state for block")
		return
	}
	sec, lo, hi, ok := v.res.GlobalClaim(AddrValue(st, in), c.Width)
	if !ok {
		v.failc(fp.Entry, c, "re-derivation failed: access not provably in a section")
		return
	}
	if sec != c.Section {
		v.failc(fp.Entry, c, "derived section %q != claimed %q", sec, c.Section)
	}
	if lo < c.GLo || hi > c.GHi {
		v.failc(fp.Entry, c, "derived range [%#x,%#x] outside claimed [%#x,%#x]",
			lo, hi, c.GLo, c.GHi)
	}
	s := v.mod.SectionAt(c.GLo)
	if s == nil || s.Name != c.Section || !s.Contains(c.GHi) {
		v.failc(fp.Entry, c, "claimed range [%#x,%#x] not inside section %q",
			c.GLo, c.GHi, c.Section)
	}
}

// checkDedup re-checks the dedup side conditions syntactically — this check
// is deliberately independent of the abstract interpretation.
func (v *verifier) checkDedup(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	if !in.IsMemAccess() {
		v.failc(fp.Entry, c, "not a memory access")
		return
	}
	prevIdx, curIdx := -1, -1
	for i := range blk.Instrs {
		switch blk.Instrs[i].Addr {
		case c.Prev:
			prevIdx = i
		case c.Instr:
			curIdx = i
		}
	}
	if prevIdx < 0 || curIdx < 0 || prevIdx >= curIdx {
		v.failc(fp.Entry, c, "anchor %#x does not precede access in block", c.Prev)
		return
	}
	anchor := &blk.Instrs[prevIdx]
	if !anchor.IsMemAccess() {
		v.failc(fp.Entry, c, "anchor is not a memory access")
		return
	}
	shape := in.MemAddr()
	if shape == isa.AddrNone || anchor.MemAddr() != shape ||
		anchor.Rb != in.Rb || anchor.Disp != in.Disp ||
		(shape.Indexed() && anchor.Ri != in.Ri) {
		v.failc(fp.Entry, c, "anchor addressing form differs")
		return
	}
	if in.AccessWidth() > anchor.AccessWidth() {
		v.failc(fp.Entry, c, "access wider than anchor")
		return
	}
	for i := prevIdx + 1; i < curIdx; i++ {
		for _, d := range blk.Instrs[i].RegDefs(nil) {
			if d == in.Rb || (shape.Indexed() && d == in.Ri) {
				v.failc(fp.Entry, c, "address register redefined at %#x",
					blk.Instrs[i].Addr)
				return
			}
		}
	}
	// No canary (un)poisoning may execute between anchor and access: the
	// shadow the anchor checked must still be the shadow at the access.
	for _, site := range v.canaries {
		for _, a := range append([]uint64{site.StoreAddr, site.PoisonAt}, site.CheckAddrs...) {
			for i := prevIdx + 1; i <= curIdx; i++ {
				if blk.Instrs[i].Addr == a {
					v.failc(fp.Entry, c, "canary activity at %#x between anchor and access", a)
					return
				}
			}
		}
	}
}

// checkDefInit re-checks the definitely-initialized side conditions
// syntactically, like checkDedup: the dominating store at Prev must write
// the same syntactic address at equal or larger width, with no address-
// register redefinition and no frame(-undefining) SP adjustment in between.
// Traps (allocator calls, which could re-undefine heap memory) cannot occur
// in between because basic blocks end at OpTrap; stores in between only add
// definedness, never remove it.
func (v *verifier) checkDefInit(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	if !in.IsMemAccess() || in.IsStore() {
		v.failc(fp.Entry, c, "not a load")
		return
	}
	prevIdx, curIdx := -1, -1
	for i := range blk.Instrs {
		switch blk.Instrs[i].Addr {
		case c.Prev:
			prevIdx = i
		case c.Instr:
			curIdx = i
		}
	}
	if prevIdx < 0 || curIdx < 0 || prevIdx >= curIdx {
		v.failc(fp.Entry, c, "anchor %#x does not precede load in block", c.Prev)
		return
	}
	anchor := &blk.Instrs[prevIdx]
	if !anchor.IsStore() {
		v.failc(fp.Entry, c, "anchor is not a store")
		return
	}
	shape := in.MemAddr()
	if shape == isa.AddrNone || anchor.MemAddr() != shape ||
		anchor.Rb != in.Rb || anchor.Disp != in.Disp ||
		(shape.Indexed() && anchor.Ri != in.Ri) {
		v.failc(fp.Entry, c, "anchor addressing form differs")
		return
	}
	if in.AccessWidth() > anchor.AccessWidth() {
		v.failc(fp.Entry, c, "load wider than anchor store")
		return
	}
	for i := prevIdx + 1; i < curIdx; i++ {
		between := &blk.Instrs[i]
		for _, d := range between.RegDefs(nil) {
			if d == in.Rb || (shape.Indexed() && d == in.Ri) {
				v.failc(fp.Entry, c, "address register redefined at %#x",
					between.Addr)
				return
			}
		}
		if between.Op == isa.OpSubRI && between.Rd == isa.SP {
			v.failc(fp.Entry, c, "frame adjustment at %#x between store and load",
				between.Addr)
			return
		}
	}
}

// checkNoEscape re-derives a temporal no-escape claim in its claimed form.
// The frame and global forms are re-derived from the fresh abstract state:
// an address provably inside the function's frame or a statically sized
// module section is never a heap chunk, so no free can ever target it. The
// dedup form (Prev set) is re-checked syntactically like checkDedup, with
// one extra side condition: no call, service trap or syscall may execute
// between the generation-checked anchor and the access, because a free can
// only run through one of those — straight-line code cannot unmap what the
// anchor proved live.
func (v *verifier) checkNoEscape(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	if !in.IsMemAccess() {
		v.failc(fp.Entry, c, "not a memory access")
		return
	}
	if c.Prev != 0 {
		v.checkNoEscapeDedup(fp, c, blk, in)
		return
	}
	if in.AccessWidth() != c.Width {
		v.failc(fp.Entry, c, "not a %d-byte memory access", c.Width)
		return
	}
	st := v.accessState(blk, c.Instr)
	if st == nil {
		v.failc(fp.Entry, c, "no analysed state for block")
		return
	}
	if c.Section != "" {
		sec, lo, hi, ok := v.res.GlobalClaim(AddrValue(st, in), c.Width)
		if !ok {
			v.failc(fp.Entry, c, "re-derivation failed: access not provably in a section")
			return
		}
		if sec != c.Section {
			v.failc(fp.Entry, c, "derived section %q != claimed %q", sec, c.Section)
		}
		if lo < c.GLo || hi > c.GHi {
			v.failc(fp.Entry, c, "derived range [%#x,%#x] outside claimed [%#x,%#x]",
				lo, hi, c.GLo, c.GHi)
		}
		s := v.mod.SectionAt(c.GLo)
		if s == nil || s.Name != c.Section || !s.Contains(c.GHi) {
			v.failc(fp.Entry, c, "claimed range [%#x,%#x] not inside section %q",
				c.GLo, c.GHi, c.Section)
		}
		return
	}
	lo, hi, ok := v.res.FrameClaim(fp.Entry, AddrValue(st, in), c.Width)
	if !ok {
		v.failc(fp.Entry, c, "re-derivation failed: access not provably in-frame")
		return
	}
	if lo < c.Lo || hi > c.Hi {
		v.failc(fp.Entry, c, "derived range [%d,%d] outside claimed [%d,%d]",
			lo, hi, c.Lo, c.Hi)
	}
	// The claimed range itself must sit inside the frame. Canary overlap is
	// irrelevant here: a canary slot is still stack memory, which is all
	// the temporal argument needs.
	fs := v.res.FrameSizes[fp.Entry]
	if c.Lo < -fs || c.Hi > -1 {
		v.failc(fp.Entry, c, "claimed range [%d,%d] outside frame [%d,-1]",
			c.Lo, c.Hi, -fs)
	}
}

// checkNoEscapeDedup replays the dedup form of a no-escape claim.
func (v *verifier) checkNoEscapeDedup(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	prevIdx, curIdx := -1, -1
	for i := range blk.Instrs {
		switch blk.Instrs[i].Addr {
		case c.Prev:
			prevIdx = i
		case c.Instr:
			curIdx = i
		}
	}
	if prevIdx < 0 || curIdx < 0 || prevIdx >= curIdx {
		v.failc(fp.Entry, c, "anchor %#x does not precede access in block", c.Prev)
		return
	}
	anchor := &blk.Instrs[prevIdx]
	if !anchor.IsMemAccess() {
		v.failc(fp.Entry, c, "anchor is not a memory access")
		return
	}
	shape := in.MemAddr()
	if shape == isa.AddrNone || anchor.MemAddr() != shape ||
		anchor.Rb != in.Rb || anchor.Disp != in.Disp ||
		(shape.Indexed() && anchor.Ri != in.Ri) {
		v.failc(fp.Entry, c, "anchor addressing form differs")
		return
	}
	if in.AccessWidth() > anchor.AccessWidth() {
		v.failc(fp.Entry, c, "access wider than anchor")
		return
	}
	for i := prevIdx + 1; i < curIdx; i++ {
		between := &blk.Instrs[i]
		for _, d := range between.RegDefs(nil) {
			if d == in.Rb || (shape.Indexed() && d == in.Ri) {
				v.failc(fp.Entry, c, "address register redefined at %#x",
					between.Addr)
				return
			}
		}
		switch between.Op {
		case isa.OpCall, isa.OpCallI, isa.OpTrap, isa.OpSyscall:
			v.failc(fp.Entry, c, "possible free at %#x between anchor and access",
				between.Addr)
			return
		}
	}
}

func (v *verifier) checkJump(fp *FuncProof, c *Claim, blk *cfg.BasicBlock, in *isa.Instr) {
	if in.Op != isa.OpJmpI {
		v.failc(fp.Entry, c, "not an indirect jump")
		return
	}
	if len(c.Targets) == 0 {
		v.failc(fp.Entry, c, "empty target set")
		return
	}
	jf := v.res.ResolveJump(blk)
	if jf == nil {
		v.failc(fp.Entry, c, "re-derivation failed: jump does not resolve")
		return
	}
	if c.Kind == ClaimJumpSingle {
		if jf.Table || len(jf.Targets) != 1 || len(c.Targets) != 1 ||
			jf.Targets[0] != c.Targets[0] {
			v.failc(fp.Entry, c, "derived targets %v != claimed %v",
				jf.Targets, c.Targets)
		}
	} else {
		if !jf.Table || jf.TableAddr != c.Table ||
			jf.IdxLo != c.IdxLo || jf.IdxHi != c.IdxHi {
			v.failc(fp.Entry, c, "derived table %#x[%d,%d] != claimed %#x[%d,%d]",
				jf.TableAddr, jf.IdxLo, jf.IdxHi, c.Table, c.IdxLo, c.IdxHi)
			return
		}
		if len(jf.Targets) != len(c.Targets) {
			v.failc(fp.Entry, c, "derived targets %v != claimed %v",
				jf.Targets, c.Targets)
			return
		}
		for i := range jf.Targets {
			if jf.Targets[i] != c.Targets[i] {
				v.failc(fp.Entry, c, "derived targets %v != claimed %v",
					jf.Targets, c.Targets)
				return
			}
		}
	}
	for _, t := range c.Targets {
		if !v.res.validJumpTarget(blk.Fn, t) {
			v.failc(fp.Entry, c, "claimed target %#x not admissible", t)
		}
	}
}

// crossCheck ties the rule file and the proof artifact together: every
// VSA-backed rule needs a matching claim, every claim needs its rule, and
// every dedup anchor must still carry an executed MEM_ACCESS check.
func (v *verifier) crossCheck(ps *ProofSet, rf *rules.File, claimAt map[uint64]*Claim) {
	if rf == nil {
		return
	}
	memAccessAt := map[uint64]bool{}
	memDefStoreAt := map[uint64]bool{}
	memGenCheckAt := map[uint64]bool{}
	ruleAt := map[uint64]*rules.Rule{}
	for i := range rf.Rules {
		r := &rf.Rules[i]
		switch r.ID {
		case rules.MemAccess:
			memAccessAt[r.Instr] = true
		case rules.MemDefStore:
			memDefStoreAt[r.Instr] = true
		case rules.MemGenCheck:
			memGenCheckAt[r.Instr] = true
		case rules.MemAccessSafe:
			switch r.Data[1] {
			case rules.SafeFrame, rules.SafeGlobal, rules.SafeDedup,
				rules.SafeDefInit, rules.SafeNoEscape:
				ruleAt[r.Instr] = r
				c := claimAt[r.Instr]
				if c == nil {
					v.fail(0, r.Instr, "VSA-elided rule without claim: %s", r)
					continue
				}
				want := map[uint64]ClaimKind{
					rules.SafeFrame:    ClaimFrame,
					rules.SafeGlobal:   ClaimGlobal,
					rules.SafeDedup:    ClaimDedup,
					rules.SafeDefInit:  ClaimDefInit,
					rules.SafeNoEscape: ClaimNoEscape,
				}[r.Data[1]]
				if c.Kind != want {
					v.fail(0, r.Instr, "rule provenance %d vs claim kind %s",
						r.Data[1], c.Kind)
				}
				if (r.Data[1] == rules.SafeDedup || r.Data[1] == rules.SafeDefInit ||
					r.Data[1] == rules.SafeNoEscape) && c.Prev != r.Data[2] {
					v.fail(0, r.Instr, "%s anchor mismatch: rule %#x, claim %#x",
						c.Kind, r.Data[2], c.Prev)
				}
			}
		case rules.CFIJumpNarrow:
			ruleAt[r.Instr] = r
			c := claimAt[r.Instr]
			if c == nil {
				v.fail(0, r.Instr, "narrow rule without claim: %s", r)
				continue
			}
			switch c.Kind {
			case ClaimJumpSingle:
				if r.Data[1] != 0 || r.Data[2] != c.Targets[0] {
					v.fail(0, r.Instr, "narrow rule data disagrees with singleton claim")
				}
			case ClaimJumpTable:
				count := uint64(c.IdxHi - c.IdxLo + 1)
				if r.Data[1] != 1 || r.Data[2] != c.Table ||
					r.Data[3] != uint64(c.IdxLo)<<32|count {
					v.fail(0, r.Instr, "narrow rule data disagrees with table claim")
				}
			default:
				v.fail(0, r.Instr, "narrow rule over %s claim", c.Kind)
			}
		}
	}
	for instr, c := range claimAt {
		if ruleAt[instr] == nil {
			v.fail(0, instr, "%s claim without matching rule", c.Kind)
		}
		if c.Kind == ClaimDedup && !memAccessAt[c.Prev] {
			v.fail(0, instr, "dedup anchor %#x carries no MEM_ACCESS rule", c.Prev)
		}
		if c.Kind == ClaimDefInit && !memDefStoreAt[c.Prev] {
			v.fail(0, instr, "def-init anchor %#x carries no MEM_DEF_STORE rule", c.Prev)
		}
		if c.Kind == ClaimNoEscape && c.Prev != 0 && !memGenCheckAt[c.Prev] {
			v.fail(0, instr, "no-escape anchor %#x carries no MEM_GEN_CHECK rule", c.Prev)
		}
	}
}
