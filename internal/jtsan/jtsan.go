package jtsan

import (
	"fmt"

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

// Config selects JTSan variants for the evaluation:
//
//   - UseLiveness off conservatively saves/restores every register and flag
//     the instrumentation touches (the "base" configuration);
//   - Elide toggles proof-carrying check elision: accesses whose pointer
//     the static analysis proves can never refer to a freed heap chunk —
//     in-frame, inside a statically sized module section, or re-checking a
//     generation-checked dominating access in the same block with no
//     possible free in between — emit MEM_ACCESS_SAFE instead of a
//     MEM_GEN_CHECK. Every elision records a replayable vsa.Claim for
//     independent verification by cmd/jvet.
//
// JTSan-dyn (the dynamic-only variant) is obtained by running the tool with
// no rewrite-rule files at all, so every block takes the fallback path.
type Config struct {
	UseLiveness bool
	Elide       bool
}

// Tool is the JTSan security technique, pluggable into the Janitizer core.
type Tool struct {
	cfg Config
	// Report accumulates detected temporal violations.
	Report *diag.Report
}

// New returns a JTSan instance.
func New(cfg Config) *Tool {
	return &Tool{cfg: cfg, Report: &diag.Report{Tool: "jtsan"}}
}

// Name implements core.Tool.
func (t *Tool) Name() string { return "jtsan" }

// ViolationReport implements diag.Reporter.
func (t *Tool) ViolationReport() *diag.Report { return t.Report }

// ConfigKey returns a stable identifier for the configuration fields that
// influence StaticPass output — part of the analysis-cache key
// (internal/anserve).
func (t *Tool) ConfigKey() string {
	return fmt.Sprintf("liveness=%t,elide=%t", t.cfg.UseLiveness, t.cfg.Elide)
}

// RuntimeInit implements core.Tool: installs the generation-check trap
// family and interposes the quarantine-and-generation allocator wrapper.
// Under MultiTool composition this runs after the earlier tools' inits, so
// the wrapper nests over e.g. JASan's redzone allocator the way JMSan's
// definedness wrapper does.
func (t *Tool) RuntimeInit(rt *core.Runtime) error {
	installRuntime(rt.M, t.Report)
	return nil
}

// StaticPass implements core.Tool. It emits:
//
//   - MEM_GEN_CHECK for every memory access (loads and stores both — a
//     store through a dangling pointer is as much a use-after-free as a
//     load);
//   - MEM_ACCESS_SAFE with SafeNoEscape provenance (plus a recorded
//     no-escape claim) for accesses proven temporally safe when elision is
//     on;
//   - QUAR_TICK at every allocator service trap (malloc/free), anchoring
//     the quarantine cost tick so trap-only blocks are still instrumented.
func (t *Tool) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	g := sc.Graph
	var vres *vsa.Result
	if t.cfg.Elide {
		vres = sc.EnsureVSA()
	}

	for _, blk := range g.Blocks {
		var plan map[uint64]uint64
		if vres != nil {
			plan = t.noEscapePlan(sc, vres, blk)
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if allocTrap(in) {
				// Anchor the quarantine tick: without a rule at the
				// malloc/free trap the whole block can end up rule-free and
				// the core places it unplanned as a NO_OP block, so the
				// tick would never be planted.
				out = append(out, rules.Rule{
					ID: rules.QuarTick, BBAddr: blk.Start, Instr: in.Addr,
				})
				continue
			}
			if !in.IsMemAccess() {
				continue
			}
			if anchor, ok := plan[in.Addr]; ok {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{0, rules.SafeNoEscape, anchor},
				})
				continue
			}
			out = append(out, rules.Rule{
				ID: rules.MemGenCheck, BBAddr: blk.Start, Instr: in.Addr,
				Data: [4]uint64{
					sc.LiveWord(in.Addr),
					uint64(sc.Loops.ClassOf(in.Addr)),
				},
			})
		}
	}
	return out
}

// noEscapePlan decides which accesses in blk get their generation check
// elided, recording one replayable no-escape claim per decision. The plan
// value is the dedup anchor's instruction address (0 for the frame and
// global forms). Three forms share the claim kind:
//
//   - frame: the address is provably inside the function's own frame —
//     stack memory is never a heap chunk, so it cannot be freed;
//   - global: the address is provably inside a statically sized module
//     section — module images are disjoint from the heap;
//   - dedup: an earlier generation-checked access at the same syntactic
//     address dominates this one with no call, service trap or
//     address-register redefinition in between — no free can have executed
//     since the anchor's check passed.
func (t *Tool) noEscapePlan(sc *core.StaticContext, vres *vsa.Result,
	blk *cfg.BasicBlock) map[uint64]uint64 {
	plan := map[uint64]uint64{}
	if blk.Fn == nil {
		return plan
	}
	fnEntry := blk.Fn.Entry
	vres.WalkBlock(blk, func(i int, in *isa.Instr, st *vsa.State) {
		if !in.IsMemAccess() {
			return
		}
		addr := vsa.AddrValue(st, in)
		w := in.AccessWidth()
		if lo, hi, ok := vres.FrameClaim(fnEntry, addr, w); ok {
			plan[in.Addr] = 0
			sc.Proofs.Record(fnEntry, vsa.Claim{
				Kind: vsa.ClaimNoEscape, Block: blk.Start, Instr: in.Addr,
				Width: w, Lo: lo, Hi: hi,
			})
			return
		}
		if sec, glo, ghi, ok := vres.GlobalClaim(addr, w); ok {
			plan[in.Addr] = 0
			sc.Proofs.Record(fnEntry, vsa.Claim{
				Kind: vsa.ClaimNoEscape, Block: blk.Start, Instr: in.Addr,
				Width: w, Section: sec, GLo: glo, GHi: ghi,
			})
		}
	})
	dedup := shadow.Dedup{
		Kind:    vsa.ClaimNoEscape,
		Barrier: freeBarrier,
		// Frame/global-proven accesses are not anchors: the verifier
		// requires every dedup anchor to carry an executed check.
		Skip: func(in *isa.Instr) bool {
			_, elided := plan[in.Addr]
			return elided
		},
	}
	dedup.Plan(sc, blk, func(instr, anchor uint64) { plan[instr] = anchor })
	return plan
}

// freeBarrier reports whether in could transitively execute a heap free:
// calls and service traps can, straight-line arithmetic cannot. Syscalls
// are included for symmetry with the def-init barrier.
func freeBarrier(in *isa.Instr) bool {
	switch in.Op {
	case isa.OpCall, isa.OpCallI, isa.OpTrap, isa.OpSyscall:
		return true
	}
	return false
}

// allocTrap reports whether in is an allocator service trap (malloc or
// free) — the sites where the quarantine tick is planted.
func allocTrap(in *isa.Instr) bool {
	return in.Op == isa.OpTrap &&
		(in.Imm == isa.TrapMalloc || in.Imm == isa.TrapFree)
}

// PlanStatic implements core.Tool: rewrites a statically-seen block using
// its rules (the hit path).
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
	if allocTrap(in) {
		e.SetCC(telemetry.CCQuarantine)
		EmitQuarTick(e, in.Addr)
	}
	for _, r := range p.rules[in.Addr] {
		switch r.ID {
		case rules.MemGenCheck:
			e.SetCC(telemetry.CCGenCheck)
			p.t.emitGenCheck(e, in, r.Data[0], true)
		case rules.MemAccessSafe:
			// statically proven temporally safe: nothing to do (any
			// residue would charge CCElided)
			e.SetCC(telemetry.CCElided)
		}
	}
	e.SetCC(telemetry.CCOther)
}

func (p *staticPlan) After(*dbm.Emitter, int) {}

// PlanDyn implements core.Tool: the simpler per-block analysis for code
// only seen dynamically. Every memory access is generation-checked.
func (t *Tool) PlanDyn(bc *dbm.BlockContext) core.InstrPlan {
	return &dynPlan{t: t, bc: bc}
}

type dynPlan struct {
	t  *Tool
	bc *dbm.BlockContext
}

func (p *dynPlan) Before(e *dbm.Emitter, idx int) {
	in := &p.bc.AppInstrs[idx]
	if allocTrap(in) {
		e.SetCC(telemetry.CCQuarantine)
		EmitQuarTick(e, in.Addr)
		e.SetCC(telemetry.CCOther)
	}
	if !in.IsMemAccess() {
		return
	}
	e.SetCC(telemetry.CCGenCheck)
	p.t.emitGenCheck(e, in, 0, false)
	e.SetCC(telemetry.CCOther)
}

func (p *dynPlan) After(*dbm.Emitter, int) {}

// emitGenCheck emits the inline generation check for one access using the
// packed liveness word (conservative save/restore when liveness use is
// disabled or the block came through the dynamic fallback).
func (t *Tool) emitGenCheck(e *dbm.Emitter, in *isa.Instr, livePacked uint64, haveLive bool) {
	dead, saveFlags := core.LiveSaves(livePacked, haveLive && t.cfg.UseLiveness)
	shadow.EmitBitmapCheck(e, shadow.AccessPlan(in, dead, saveFlags),
		isa.LayoutGenShadowBase, GenCheckTraps)
}
