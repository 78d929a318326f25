package jlint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vsa"
)

// specRounds is the number of top-down entry-specialization rounds. Each
// round is individually sound (call-site joins over-approximate concrete
// entries by induction on call depth); more rounds only add precision for
// constant arguments threaded through constant-calling intermediaries.
const specRounds = 2

// maxFrameBytes bounds the per-function frame window the definedness
// lattice tracks; functions with larger frames skip the uninit analysis.
const maxFrameBytes = 1 << 16

// maxEnum bounds how many strided elements the global OOB check enumerates.
const maxEnum = 64

// analysisFor builds the detector's analysis inputs: the recovered CFG and
// the entry-specialized VSA fixpoint. VerifyReport re-derives through the
// same path, so witnesses replay against identical feasibility judgements.
func analysisFor(mod *obj.Module) (*vsa.Result, *cfg.Graph, error) {
	g, err := cfg.Build(mod)
	if err != nil {
		return nil, nil, fmt.Errorf("jlint: %s: %w", mod.Name, err)
	}
	canaries := analysis.FindCanaries(g)
	res := vsa.Analyze(mod, g, canaries)
	// Top-down entry specialization: functions only ever entered through
	// direct transfers get the join of their call sites' argument values
	// as entry state, turning path-dependent may-alarms into must-alarms.
	for round := 0; round < specRounds; round++ {
		ov := specializeEntries(mod, g, res)
		if len(ov) == 0 {
			break
		}
		res = vsa.AnalyzeWithEntries(mod, g, canaries, ov)
	}
	return res, g, nil
}

// Analyze runs the static bug detection over one module and returns its
// finalized, deterministic report.
func Analyze(mod *obj.Module) (*Report, error) {
	res, g, err := analysisFor(mod)
	if err != nil {
		return nil, err
	}
	live := analysis.ComputeLiveness(g, true)
	def := analysis.ComputeDefinedness(g, live)

	a := &checker{mod: mod, g: g, res: res, def: def}
	rep := &Report{Version: ReportVersion, Module: mod.Name, ModHash: mod.HashString()}
	for _, fn := range g.Funcs {
		if res.Poisoned[fn.Entry] || strings.HasSuffix(fn.Name, "@plt") {
			continue
		}
		rep.Findings = append(rep.Findings, a.checkFunc(fn)...)
	}
	rep.Finalize()
	return rep, nil
}

// specializeEntries derives entry-state overrides for functions that are
// provably only entered through this module's direct calls and tail
// transfers: not the module entry, never address-taken (no lea/mov
// materialization, no data word, no jump table), and — for shared objects,
// whose exports are externally callable — not exported. The override joins
// the abstract argument values over every transfer site under res; only
// non-symbolic (integer or link-address) bounded joins survive.
func specializeEntries(mod *obj.Module, g *cfg.Graph, res *vsa.Result) map[uint64]*vsa.RegOverride {
	taken := addressTaken(g)
	exported := map[uint64]bool{}
	if mod.Type == obj.SharedObj {
		for _, s := range mod.ExportedSymbols() {
			if s.Kind == obj.SymFunc {
				exported[s.Addr] = true
			}
		}
	}
	candidate := map[uint64]bool{}
	for _, fn := range g.Funcs {
		if fn.Entry == mod.Entry || taken[fn.Entry] || exported[fn.Entry] ||
			res.Poisoned[fn.Entry] || strings.HasSuffix(fn.Name, "@plt") {
			continue
		}
		candidate[fn.Entry] = true
	}
	if len(candidate) == 0 {
		return nil
	}

	// Join argument values over every transfer site. joins[entry][r] is
	// Bot until the first site contributes, then the running join.
	joins := map[uint64]*vsa.RegOverride{}
	sawSite := map[uint64]bool{}
	contribute := func(entry uint64, st *vsa.State) {
		ov := joins[entry]
		if ov == nil {
			ov = &vsa.RegOverride{}
			for r := range ov {
				ov[r] = vsa.Bot()
			}
			joins[entry] = ov
		}
		sawSite[entry] = true
		for r := isa.Register(0); r < isa.NumRegs; r++ {
			ov[r] = ov[r].Join(st.Regs[r])
		}
	}
	for _, blk := range g.SortedBlocks() {
		if len(blk.Instrs) == 0 {
			continue
		}
		term := blk.Terminator()
		// States at the terminator: transfer happens at the instruction
		// for CTIs; for plain fallthrough the terminator executes first.
		var preTerm, postTerm *vsa.State
		ok := res.WalkBlock(blk, func(i int, in *isa.Instr, st *vsa.State) {
			if i == len(blk.Instrs)-1 {
				preTerm = st.Clone()
			}
		})
		if !ok || preTerm == nil {
			continue // unreached block: contributes no concrete entries
		}
		switch term.Op {
		case isa.OpCall:
			if candidate[term.Target()] {
				contribute(term.Target(), preTerm)
			}
		case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle,
			isa.OpJg, isa.OpJge, isa.OpJb, isa.OpJae:
			t := term.Target()
			if candidate[t] && crossFn(g, blk, t) {
				contribute(t, preTerm)
			}
			if term.Op != isa.OpJmp {
				// Conditional fallthrough into another function's entry.
				fall := term.Addr + uint64(term.Size)
				if candidate[fall] && crossFn(g, blk, fall) {
					contribute(fall, preTerm)
				}
			}
		case isa.OpCallI, isa.OpJmpI, isa.OpRet, isa.OpHlt:
			// Indirect transfers cannot reach a never-address-taken
			// function; returns and halts transfer nowhere.
		default:
			postTerm = preTerm.Clone()
			res.Step(postTerm, term)
			for _, s := range blk.Succs {
				if candidate[s] && crossFn(g, blk, s) {
					contribute(s, postTerm)
				}
			}
		}
	}

	out := map[uint64]*vsa.RegOverride{}
	for entry, ov := range joins {
		if !sawSite[entry] {
			continue
		}
		kept := &vsa.RegOverride{}
		any := false
		for r := isa.Register(0); r < isa.NumRegs; r++ {
			v := ov[r]
			if r == isa.SP || !v.Bounded() ||
				(v.Region != vsa.RConst && v.Region != vsa.RLink) {
				continue // keep the symbolic entry value
			}
			kept[r] = v
			any = true
		}
		if any {
			out[entry] = kept
		}
	}
	return out
}

// crossFn reports whether t is the entry of a function other than blk's.
func crossFn(g *cfg.Graph, blk *cfg.BasicBlock, t uint64) bool {
	tf := g.FuncAt(t)
	return tf != nil && tf.Entry == t && tf != blk.Fn
}

// addressTaken marks function entries whose address escapes into data or a
// register: lea/mov materializations, data words decoding to the entry, and
// jump-table targets. A transfer to such a function can originate anywhere,
// so its entry state must stay fully symbolic.
func addressTaken(g *cfg.Graph) map[uint64]bool {
	entries := map[uint64]bool{}
	for _, fn := range g.Funcs {
		entries[fn.Entry] = true
	}
	taken := map[uint64]bool{}
	for _, blk := range g.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case isa.OpLeaPC:
				if entries[in.Target()] {
					taken[in.Target()] = true
				}
			case isa.OpMovRI:
				if in.Imm > 0 && entries[uint64(in.Imm)] {
					taken[uint64(in.Imm)] = true
				}
			}
		}
	}
	for _, jt := range g.JumpTables {
		for _, t := range jt.Targets {
			if entries[t] {
				taken[t] = true
			}
		}
	}
	for _, p := range g.CodePtrs {
		if entries[p.Value] {
			taken[p.Value] = true
		}
	}
	return taken
}

// checker holds the per-module analysis inputs for finding generation.
type checker struct {
	mod *obj.Module
	g   *cfg.Graph
	res *vsa.Result
	def *analysis.Definedness
}

// checkFunc derives every finding for one function: spatial frame/global
// violations, bad indirect transfers, and never-written frame reads.
func (c *checker) checkFunc(fn *cfg.Function) []Finding {
	var out []Finding
	fs := c.res.FrameSizes[fn.Entry]
	spFixed := c.frameFixed(fn)
	wit := newWitnesses(c.res, fn)

	blocks := append([]*cfg.BasicBlock(nil), fn.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Start < blocks[j].Start })
	for _, blk := range blocks {
		if !c.res.BlockReached(blk.Start) {
			continue
		}
		chain := wit.chainTo(blk.Start)
		if chain == nil {
			continue // reachable per states but not via feasible edges: skip
		}
		c.res.WalkBlock(blk, func(i int, in *isa.Instr, st *vsa.State) {
			if in.IsMemAccess() {
				out = append(out, c.checkAccess(fn, fs, spFixed, in, st, chain)...)
			}
			if i == len(blk.Instrs)-1 && (in.Op == isa.OpJmpI || in.Op == isa.OpCallI) {
				out = append(out, c.checkIndirect(fn, blk, in, st, chain)...)
			}
		})
	}

	out = append(out, c.checkUninit(fn, fs, wit)...)
	return out
}

// frameFixed reports whether the function's static frame size covers every
// SP excursion: no pushes or SP-lowering arithmetic outside the entry
// block. Below-frame must-alarms are only sound under this condition —
// StackSize derives the frame from the prologue alone.
func (c *checker) frameFixed(fn *cfg.Function) bool {
	for bi, blk := range fn.Blocks {
		first := bi == 0 && blk.Start == fn.Entry
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case isa.OpPush, isa.OpPushF:
				if !first {
					return false
				}
			case isa.OpSubRI:
				if !first && in.Rd == isa.SP && in.Imm > 0 {
					return false
				}
			}
		}
	}
	return true
}

// checkAccess derives spatial findings for one load or store.
func (c *checker) checkAccess(fn *cfg.Function, fs int64, spFixed bool,
	in *isa.Instr, st *vsa.State, chain []uint64) []Finding {

	addr := vsa.AddrValue(st, in)
	w := int64(in.AccessWidth())
	mk := func(tier Tier, kind Kind, detail string) Finding {
		return Finding{
			Tier: tier, Kind: kind, Func: fn.Name, FuncEntry: fn.Entry,
			Instr: in.Addr, Width: int(w), Detail: detail,
			Witness: chain,
		}
	}

	// Frame direction: an access at a provable F-relative offset that
	// lies entirely outside the function's own allocation. The region
	// below the frame is only judged when the prologue covers every SP
	// excursion; the region above skips the pushed return address word.
	if addr.IsFrame() && addr.Bounded() && fs > 0 {
		lo, hi := addr.Lo, satAdd(addr.Hi, w-1)
		switch {
		case spFixed && hi < -fs:
			return []Finding{mk(Must, OOBFrame, fmt.Sprintf(
				"access [F%+d,F%+d] entirely below frame [F-%d,F-1]", lo, hi, fs))}
		case lo >= 8:
			return []Finding{mk(Must, OOBFrame, fmt.Sprintf(
				"access [F%+d,F%+d] entirely above frame and return address", lo, hi))}
		case (lo < -fs && hi >= -fs && spFixed) || (lo <= 7 && hi > 7 && lo >= -fs):
			return []Finding{mk(May, OOBFrame, fmt.Sprintf(
				"access [F%+d,F%+d] straddles frame extent [F-%d,F-1]", lo, hi, fs))}
		}
		return nil
	}

	// Global direction: integer or link-region addresses measured against
	// the section extents. Only address-plausible ranges participate —
	// the interval must start at or beyond the image base, so small
	// integer ranges (byte loads, counters) never alarm.
	eligible := addr.Region == vsa.RLink ||
		(addr.Region == vsa.RConst && !c.mod.PIC)
	if !eligible || !addr.Bounded() || addr.Lo < 0 {
		return nil
	}
	imageLo := c.imageBase()
	if imageLo == 0 || uint64(addr.Lo) < imageLo {
		return nil
	}
	type span struct{ lo, hi uint64 }
	var spans []span
	if n := strideCount(addr); n > 0 && n <= maxEnum {
		for k := int64(0); k < n; k++ {
			a := uint64(addr.Lo + k*addr.Stride)
			spans = append(spans, span{a, a + uint64(w) - 1})
		}
	} else {
		spans = append(spans, span{uint64(addr.Lo), uint64(satAdd(addr.Hi, w-1))})
	}
	bad, good := 0, 0
	for _, s := range spans {
		sec := c.mod.SectionAt(s.lo)
		if sec != nil && sec.Contains(s.hi) {
			good++
		} else {
			bad++
		}
	}
	if bad == 0 {
		return nil
	}
	detail := fmt.Sprintf("access [%#x,%#x] vs section extents",
		uint64(addr.Lo), uint64(satAdd(addr.Hi, w-1)))
	if good == 0 && len(spans) > 1 || (len(spans) == 1 && addrExact(addr)) {
		return []Finding{mk(Must, OOBGlobal, detail)}
	}
	return []Finding{mk(May, OOBGlobal, detail)}
}

// addrExact reports whether the value denotes exactly one concrete address.
func addrExact(v vsa.Value) bool {
	_, ok := v.Singleton()
	return ok
}

// strideCount returns the number of concrete elements a bounded strided
// interval denotes, or 0 when it cannot be enumerated.
func strideCount(v vsa.Value) int64 {
	if !v.Bounded() {
		return 0
	}
	if v.Lo == v.Hi {
		return 1
	}
	if v.Stride <= 0 || (v.Hi-v.Lo)%v.Stride != 0 {
		return 0
	}
	return (v.Hi-v.Lo)/v.Stride + 1
}

// checkIndirect derives bad-indirect findings: an indirect jump or call
// whose abstract target set resolves to concrete addresses none of which is
// admissible. Unresolvable targets yield nothing — absence of a proof is
// not a bug.
func (c *checker) checkIndirect(fn *cfg.Function, blk *cfg.BasicBlock,
	in *isa.Instr, st *vsa.State, chain []uint64) []Finding {

	if in.Op == isa.OpJmpI && c.g.JumpTables[in.Addr] != nil {
		return nil // resolved dispatch table: ordinary edges
	}
	v := st.Regs[in.Rd]
	eligible := v.Region == vsa.RLink || (v.Region == vsa.RConst && !c.mod.PIC)
	if !eligible || !v.Bounded() || v.Lo < 0 {
		return nil
	}
	n := strideCount(v)
	if n <= 0 || n > maxEnum {
		return nil
	}
	// Two grades of inadmissibility. A target outside every executable
	// section can never be code — transferring there faults on any
	// execution. A target inside an executable section that static
	// recovery didn't establish as admissible may still be
	// dynamically-discovered code (the lbm computed-goto pattern), so it
	// can only ever support a may-alarm.
	execTarget := func(t uint64) bool {
		sec := c.mod.SectionAt(t)
		return sec != nil && sec.Executable()
	}
	admissible := func(t uint64) bool {
		if in.Op == isa.OpCallI {
			tf := c.g.FuncAt(t)
			return tf != nil && tf.Entry == t && c.g.IsInstrBoundary(t)
		}
		return c.res.ValidJumpTarget(fn, t)
	}
	nonExec, inadmissible := 0, 0
	for k := int64(0); k < n; k++ {
		t := uint64(v.Lo + k*v.Stride)
		if !execTarget(t) {
			nonExec++
		}
		if !admissible(t) {
			inadmissible++
		}
	}
	if inadmissible == 0 {
		return nil
	}
	what := "jump"
	if in.Op == isa.OpCallI {
		what = "call"
	}
	f := Finding{
		Kind: BadIndirect, Func: fn.Name, FuncEntry: fn.Entry,
		Instr: in.Addr,
		Detail: fmt.Sprintf(
			"indirect %s resolves to %d target(s): %d outside executable sections, %d inadmissible",
			what, n, nonExec, inadmissible),
		Witness: chain,
	}
	if nonExec == int(n) {
		f.Tier = Must
	} else {
		f.Tier = May
	}
	return []Finding{f}
}

// witnesses computes shortest feasible block chains from the function entry
// via BFS over FeasibleSuccs, memoized per function.
type witnesses struct {
	prev map[uint64]uint64
	seen map[uint64]bool
}

func newWitnesses(res *vsa.Result, fn *cfg.Function) *witnesses {
	w := &witnesses{prev: map[uint64]uint64{}, seen: map[uint64]bool{}}
	if len(fn.Blocks) == 0 {
		return w
	}
	blkAt := map[uint64]*cfg.BasicBlock{}
	for _, b := range fn.Blocks {
		blkAt[b.Start] = b
	}
	queue := []uint64{fn.Entry}
	w.seen[fn.Entry] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		blk := blkAt[cur]
		if blk == nil {
			continue
		}
		for _, s := range res.FeasibleSuccs(blk) {
			if !w.seen[s] {
				w.seen[s] = true
				w.prev[s] = cur
				queue = append(queue, s)
			}
		}
	}
	return w
}

// chainTo returns the entry-to-start block chain, or nil when start is not
// reachable over feasible edges.
func (w *witnesses) chainTo(start uint64) []uint64 {
	if !w.seen[start] {
		return nil
	}
	var rev []uint64
	for cur := start; ; {
		rev = append(rev, cur)
		p, ok := w.prev[cur]
		if !ok {
			break
		}
		cur = p
	}
	out := make([]uint64, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// satAdd mirrors the vsa-internal saturating add for the exported Lo/Hi
// sentinel arithmetic.
func satAdd(a, b int64) int64 {
	const minB, maxB = -1 << 63, 1<<63 - 1
	if a == minB || b == minB {
		if a == maxB || b == maxB {
			return maxB
		}
		return minB
	}
	if a == maxB || b == maxB {
		return maxB
	}
	s := a + b
	if b > 0 && s < a {
		return maxB
	}
	if b < 0 && s > a {
		return minB
	}
	return s
}

// imageBase returns the lowest section address, or 0 for an empty image.
func (c *checker) imageBase() uint64 {
	base := uint64(0)
	for i := range c.mod.Sections {
		a := c.mod.Sections[i].Addr
		if base == 0 || a < base {
			base = a
		}
	}
	return base
}
