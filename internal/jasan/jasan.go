package jasan

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/rules"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/vsa"
)

// Config selects JASan variants for the evaluation:
//
//   - UseLiveness off reproduces JASan-hybrid (base) of Fig. 8, which
//     conservatively saves/restores every register and flag the
//     instrumentation touches;
//   - UseSCEV toggles the loop-bound check hoisting of §3.3.2;
//   - Elide toggles proof-carrying check elision: accesses the value-set
//     analysis (internal/vsa) proves in-bounds of the frame or a
//     statically-sized global, and same-address re-checks dominated by an
//     earlier check in the block, emit MEM_ACCESS_SAFE instead of a CHECK.
//     Every elision records a replayable vsa.Claim into the static
//     context's proof set for independent verification by cmd/jvet.
//
// JASan-dyn (the dynamic-only variant) is obtained by running the tool with
// no rewrite-rule files at all, so every block takes the fallback path.
type Config struct {
	UseLiveness bool
	UseSCEV     bool
	Elide       bool
}

// Tool is the JASan security technique, pluggable into the Janitizer core.
type Tool struct {
	cfg Config
	// Report accumulates detected violations.
	Report *diag.Report
}

// New returns a JASan instance. The default configuration is the fully
// optimised hybrid.
func New(cfg Config) *Tool {
	return &Tool{cfg: cfg, Report: &diag.Report{Tool: "jasan"}}
}

// Name implements core.Tool.
func (t *Tool) Name() string { return "jasan" }

// ViolationReport implements diag.Reporter.
func (t *Tool) ViolationReport() *diag.Report { return t.Report }

// ConfigKey returns a stable identifier for the configuration fields that
// influence StaticPass output — part of the analysis-cache key
// (internal/anserve): two tools with equal keys produce identical rule
// files for identical modules.
func (t *Tool) ConfigKey() string {
	return fmt.Sprintf("liveness=%t,scev=%t,elide=%t",
		t.cfg.UseLiveness, t.cfg.UseSCEV, t.cfg.Elide)
}

// RuntimeInit implements core.Tool: installs the report trap family and
// interposes the redzone allocator.
func (t *Tool) RuntimeInit(rt *core.Runtime) error {
	installRuntime(rt.M, t.Report)
	return nil
}

// StaticPass implements core.Tool: the strong cross-block analysis
// (§4.1.1). It identifies memory accesses to monitor, canary slots to poison
// and unpoison, precomputes liveness for cheap save/restore, and hoists
// SCEV-provable checks to loop preheaders.
func (t *Tool) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	g := sc.Graph

	// Canary sites: POISON after the install store, UNPOISON at each
	// epilogue reload; both the install store and the reloads are exempt
	// from access checks. The map value is the SAFE-rule provenance.
	safe := map[uint64]uint64{}
	for _, site := range sc.Canaries {
		safe[site.StoreAddr] = rules.SafeCanary
		poisonBlk := g.BlockAt(site.PoisonAt)
		if poisonBlk != nil {
			out = append(out, rules.Rule{
				ID: rules.PoisonCanary, BBAddr: poisonBlk.Start,
				Instr: site.PoisonAt,
				Data: [4]uint64{
					sc.LiveWord(site.PoisonAt),
					uint64(site.SlotBase),
					uint64(uint32(site.SlotDisp)),
				},
			})
		}
		for _, chk := range site.CheckAddrs {
			safe[chk] = rules.SafeCanary
			blk := g.BlockAt(chk)
			if blk == nil {
				continue
			}
			out = append(out, rules.Rule{
				ID: rules.UnpoisonCanary, BBAddr: blk.Start, Instr: chk,
				Data: [4]uint64{
					sc.LiveWord(chk),
					uint64(site.SlotBase),
					uint64(uint32(site.SlotDisp)),
				},
			})
		}
	}

	// SCEV hoisting (§3.3.2): loop-invariant and induction-linked
	// accesses get one range check in the preheader.
	if t.cfg.UseSCEV {
		out = append(out, t.hoistChecks(sc, safe)...)
	}

	// Proof-carrying elision: the value-set analysis proves some accesses
	// can never observe non-zero shadow.
	var vres *vsa.Result
	var canaryActivity map[uint64]bool
	if t.cfg.Elide {
		vres = sc.EnsureVSA()
		canaryActivity = map[uint64]bool{}
		for _, site := range sc.Canaries {
			canaryActivity[site.StoreAddr] = true
			canaryActivity[site.PoisonAt] = true
			for _, chk := range site.CheckAddrs {
				canaryActivity[chk] = true
			}
		}
	}

	// Every remaining memory access gets a MEM_ACCESS rule carrying its
	// liveness summary, or a provenance-tagged MEM_ACCESS_SAFE when its
	// check is statically discharged.
	for _, blk := range g.Blocks {
		var plan map[uint64]elision
		if vres != nil {
			plan = t.elisionPlan(sc, vres, blk, safe, canaryActivity)
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if !in.IsMemAccess() {
				continue
			}
			if prov := safe[in.Addr]; prov != 0 {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start,
					Instr: in.Addr, Data: [4]uint64{0, prov},
				})
				continue
			}
			if el, ok := plan[in.Addr]; ok {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start,
					Instr: in.Addr, Data: [4]uint64{0, el.prov, el.aux},
				})
				continue
			}
			out = append(out, rules.Rule{
				ID: rules.MemAccess, BBAddr: blk.Start, Instr: in.Addr,
				Data: [4]uint64{
					sc.LiveWord(in.Addr),
					uint64(sc.Loops.ClassOf(in.Addr)),
				},
			})
		}
	}
	return out
}

// elision is one planned VSA-backed MEM_ACCESS_SAFE emission.
type elision struct {
	prov uint64 // rules.SafeFrame, SafeGlobal or SafeDedup
	aux  uint64 // SafeDedup: the anchor instruction address
}

// elisionPlan decides which unprotected accesses in blk get their CHECK
// elided, recording one replayable claim per decision. Frame and global
// elisions come from the abstract state before each access; dedup elisions
// re-check an address already checked earlier in the block, with no canary
// (un)poisoning in between (the anchor keeps its full MEM_ACCESS check).
func (t *Tool) elisionPlan(sc *core.StaticContext, vres *vsa.Result,
	blk *cfg.BasicBlock, safe map[uint64]uint64,
	canaryActivity map[uint64]bool) map[uint64]elision {
	plan := map[uint64]elision{}
	if blk.Fn == nil {
		return plan
	}
	fnEntry := blk.Fn.Entry
	vres.WalkBlock(blk, func(i int, in *isa.Instr, st *vsa.State) {
		if !in.IsMemAccess() || safe[in.Addr] != 0 {
			return
		}
		addr := vsa.AddrValue(st, in)
		w := in.AccessWidth()
		if lo, hi, ok := vres.FrameClaim(fnEntry, addr, w); ok {
			plan[in.Addr] = elision{prov: rules.SafeFrame}
			sc.Proofs.Record(fnEntry, vsa.Claim{
				Kind: vsa.ClaimFrame, Block: blk.Start, Instr: in.Addr,
				Width: w, Lo: lo, Hi: hi,
			})
			return
		}
		if sec, glo, ghi, ok := vres.GlobalClaim(addr, w); ok {
			plan[in.Addr] = elision{prov: rules.SafeGlobal}
			sc.Proofs.Record(fnEntry, vsa.Claim{
				Kind: vsa.ClaimGlobal, Block: blk.Start, Instr: in.Addr,
				Width: w, Section: sec, GLo: glo, GHi: ghi,
			})
		}
	})
	dedup := shadow.Dedup{
		Kind: vsa.ClaimDedup,
		// A poison or unpoison rewrites the shadow here: what the anchors
		// checked no longer holds.
		Barrier: func(in *isa.Instr) bool { return canaryActivity[in.Addr] },
		Skip: func(in *isa.Instr) bool {
			_, elided := plan[in.Addr]
			return safe[in.Addr] != 0 || elided
		},
	}
	dedup.Plan(sc, blk, func(instr, anchor uint64) {
		plan[instr] = elision{prov: rules.SafeDedup, aux: anchor}
	})
	return plan
}

// hoistChecks finds loop accesses whose address range is statically known
// and plants HOISTED_CHECK rules at the preheader terminator, marking the
// covered accesses safe.
func (t *Tool) hoistChecks(sc *core.StaticContext, safe map[uint64]uint64) []rules.Rule {
	var out []rules.Rule
	g := sc.Graph
	for _, loop := range sc.Loops.Loops {
		pre := findPreheader(g, loop)
		if pre == nil {
			continue
		}
		hoistAt := pre.Terminator().Addr
		// The latch must bound the induction variable with cmp+jl for the
		// exclusive-bound arithmetic below to be right.
		latch := g.Blocks[loop.Latch]
		latchIsJl := latch != nil && latch.Terminator().Op == isa.OpJl

		for bbAddr := range loop.Blocks {
			blk := g.Blocks[bbAddr]
			if blk == nil {
				continue
			}
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if !in.IsMemAccess() || safe[in.Addr] != 0 {
					continue
				}
				var first, last int64
				ok := false
				switch sc.Loops.ClassOf(in.Addr) {
				case analysis.AccessInvariant:
					if in.Op == isa.OpLdQ || in.Op == isa.OpStQ ||
						in.Op == isa.OpLdB || in.Op == isa.OpStB {
						first, last = int64(in.Disp), int64(in.Disp)
						ok = true
					}
				case analysis.AccessInduction:
					iv := loop.Induction
					if iv == nil || !iv.Bounded || iv.Stride != 1 || !latchIsJl {
						break
					}
					init, found := inductionInit(pre, iv.Reg)
					if !found {
						break
					}
					scale := int64(1)
					if in.AccessWidth() == 8 {
						scale = 8
					}
					first = init*scale + int64(in.Disp)
					last = (iv.Bound-1)*scale + int64(in.Disp)
					ok = init < iv.Bound
				}
				if !ok || first != int64(int32(first)) || last != int64(int32(last)) {
					continue
				}
				out = append(out, rules.Rule{
					ID: rules.HoistedCheck, BBAddr: pre.Start, Instr: hoistAt,
					Data: [4]uint64{
						sc.LiveWord(hoistAt),
						uint64(in.Rb) | uint64(in.AccessWidth())<<8,
						uint64(uint32(int32(first))),
						uint64(uint32(int32(last))),
					},
				})
				safe[in.Addr] = rules.SafeHoisted
			}
		}
	}
	return out
}

// findPreheader returns the unique block outside the loop that branches to
// the header, or nil.
func findPreheader(g *cfg.Graph, loop *analysis.Loop) *cfg.BasicBlock {
	var pre *cfg.BasicBlock
	for _, blk := range g.Blocks {
		if loop.Blocks[blk.Start] {
			continue
		}
		for _, s := range blk.Succs {
			if s == loop.Header {
				if pre != nil {
					return nil // multiple entries: no unique preheader
				}
				pre = blk
			}
		}
	}
	return pre
}

// inductionInit finds the constant initial value of reg at the end of the
// preheader (the last MovRI def wins; any other def disqualifies).
func inductionInit(pre *cfg.BasicBlock, reg isa.Register) (int64, bool) {
	val, found := int64(0), false
	for i := range pre.Instrs {
		in := &pre.Instrs[i]
		for _, d := range in.RegDefs(nil) {
			if d != reg {
				continue
			}
			if in.Op == isa.OpMovRI {
				val, found = in.Imm, true
			} else {
				found = false
			}
		}
	}
	return val, found
}

// PlanStatic implements core.Tool: the rule-driven per-instruction plan
// for a block's rules, from the rule table (the hit path of Fig. 4) or
// BlockRules (the miss path), composable with other tools' plans.
func (t *Tool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) core.InstrPlan {
	return &staticPlan{t: t, bc: bc, rules: instrRules}
}

type staticPlan struct {
	t     *Tool
	bc    *dbm.BlockContext
	rules map[uint64][]rules.Rule
}

func (p *staticPlan) Before(e *dbm.Emitter, idx int) {
	in := &p.bc.AppInstrs[idx]
	for _, r := range orderRules(p.rules[in.Addr]) {
		switch r.ID {
		case rules.UnpoisonCanary:
			e.SetCC(telemetry.CCCanary)
			p.t.emitCanary(e, r, 0)
		case rules.PoisonCanary:
			e.SetCC(telemetry.CCCanary)
			p.t.emitCanary(e, r, ShadowCanary)
		case rules.HoistedCheck:
			e.SetCC(telemetry.CCMemCheck)
			p.t.emitHoisted(e, r, in.Addr)
		case rules.MemAccess:
			e.SetCC(telemetry.CCMemCheck)
			p.t.emitAccessCheck(e, in, r.Data[0])
		case rules.MemAccessSafe:
			// statically proven safe: nothing to do (any residue would
			// charge CCElided)
			e.SetCC(telemetry.CCElided)
		}
	}
	e.SetCC(telemetry.CCOther)
}

func (p *staticPlan) After(*dbm.Emitter, int) {}

// orderRules puts canary unpoisoning before checks at the same instruction.
func orderRules(rs []rules.Rule) []rules.Rule {
	if len(rs) < 2 {
		return rs
	}
	out := make([]rules.Rule, 0, len(rs))
	for _, r := range rs {
		if r.ID == rules.UnpoisonCanary {
			out = append(out, r)
		}
	}
	for _, r := range rs {
		if r.ID != rules.UnpoisonCanary {
			out = append(out, r)
		}
	}
	return out
}

// emitAccessCheck emits the shadow check for one access using the packed
// liveness word (or fully conservative save/restore when liveness use is
// disabled — the Fig. 8 "base" configuration).
func (t *Tool) emitAccessCheck(e *dbm.Emitter, in *isa.Instr, livePacked uint64) {
	dead, saveFlags := core.LiveSaves(livePacked, t.cfg.UseLiveness)
	EmitCheck(e, shadow.AccessPlan(in, dead, saveFlags))
}

// emitCanary emits the poison/unpoison of a canary slot from a rule.
func (t *Tool) emitCanary(e *dbm.Emitter, r rules.Rule, value byte) {
	base := isa.Register(r.Data[1])
	disp := int32(uint32(r.Data[2]))
	dead, saveFlags := core.LiveSaves(r.Data[0], t.cfg.UseLiveness)
	exclude := func(rg isa.Register) bool {
		return rg == base || rg == isa.SP || rg == isa.FP
	}
	scratch, toSave := dbm.PickScratch(2, dead, exclude)
	EmitSetShadow(e, base, disp, value, scratch[0], scratch[1], toSave, saveFlags)
}

// emitHoisted emits the preheader range check: first and last covered
// addresses.
func (t *Tool) emitHoisted(e *dbm.Emitter, r rules.Rule, appAddr uint64) {
	base := isa.Register(r.Data[1] & 0xff)
	width := int(r.Data[1] >> 8)
	first := int32(uint32(r.Data[2]))
	last := int32(uint32(r.Data[3]))
	dead, saveFlags := core.LiveSaves(r.Data[0], t.cfg.UseLiveness)
	exclude := func(rg isa.Register) bool {
		return rg == base || rg == isa.SP || rg == isa.FP
	}
	scratch, toSave := dbm.PickScratch(2, dead, exclude)
	p := &shadow.CheckPlan{
		AppAddr: appAddr, Width: width,
		S1: scratch[0], S2: scratch[1],
		SaveRegs: toSave, SaveFlags: saveFlags,
		Addr: AddrLea(base, first),
	}
	EmitCheck(e, p)
	if last != first {
		p.Addr = AddrLea(base, last)
		EmitCheck(e, p)
	}
}

// BlockRules implements core.Tool: the simpler per-block analysis for
// code only seen dynamically (§4.1.1). Every load and store gets a
// MEM_ACCESS rule with all-live liveness, so its check saves and restores
// the flags and any register it uses. Canary installs and reloads are
// pattern-matched block-locally into POISON_CANARY and UNPOISON_CANARY
// rules, and the matched stores and reloads go unchecked, as in the static
// pass.
func (t *Tool) BlockRules(bc *dbm.BlockContext) map[uint64][]rules.Rule {
	ins := bc.AppInstrs
	out := map[uint64][]rules.Rule{}
	canaryRule := func(id rules.ID, at uint64, slot *isa.Instr) {
		out[at] = append(out[at], rules.Rule{
			ID: id, BBAddr: bc.Start, Instr: at,
			Data: [4]uint64{rules.AllLive, uint64(slot.Rb), uint64(uint32(slot.Disp))},
		})
	}
	skipCheck := map[int]bool{}
	// Install: a guard load stored to a frame slot before the register is
	// redefined. The poison acts ahead of the instruction after the store
	// (site.PoisonAt in the static pass); with none decoded, execution
	// faults right after the store and there is nothing to poison for.
	for i := range ins {
		if ins[i].Op != isa.OpLdG {
			continue
		}
		canReg := ins[i].Rd
		for j := i + 1; j < len(ins); j++ {
			in := &ins[j]
			if in.Op == isa.OpStQ && in.Rd == canReg &&
				(in.Rb == isa.SP || in.Rb == isa.FP) {
				skipCheck[j] = true
				if j+1 < len(ins) {
					canaryRule(rules.PoisonCanary, ins[j+1].Addr, in)
				}
				break
			}
			if slices.Contains(in.RegDefs(nil), canReg) {
				break
			}
		}
	}
	// Reload: a frame-slot load followed by a guard load.
	for i := range ins {
		in := &ins[i]
		if in.Op != isa.OpLdQ || (in.Rb != isa.SP && in.Rb != isa.FP) {
			continue
		}
		if slices.ContainsFunc(ins[i+1:], func(x isa.Instr) bool { return x.Op == isa.OpLdG }) {
			canaryRule(rules.UnpoisonCanary, in.Addr, in)
			skipCheck[i] = true
		}
	}
	for i := range ins {
		if in := &ins[i]; in.IsMemAccess() && !skipCheck[i] {
			out[in.Addr] = append(out[in.Addr], rules.Rule{
				ID: rules.MemAccess, BBAddr: bc.Start, Instr: in.Addr,
				Data: [4]uint64{rules.AllLive},
			})
		}
	}
	return out
}
