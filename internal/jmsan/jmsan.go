package jmsan

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/rules"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/vsa"
)

// Config selects JMSan variants for the evaluation:
//
//   - UseLiveness off conservatively saves/restores every register and flag
//     the instrumentation touches (the "base" configuration);
//   - Elide toggles proof-carrying check elision: loads the static analysis
//     proves definitely-initialized (a store to the same proven address
//     dominates the load within the block, with no intervening redefinition,
//     frame adjustment or call) emit MEM_ACCESS_SAFE instead of a
//     MEM_DEF_LOAD. Every elision records a replayable vsa.Claim for
//     independent verification by cmd/jvet.
//
// JMSan-dyn (the dynamic-only variant) is obtained by running the tool with
// no rewrite-rule files at all, so every block takes the fallback path.
type Config struct {
	UseLiveness bool
	Elide       bool
}

// Tool is the JMSan security technique, pluggable into the Janitizer core.
type Tool struct {
	cfg Config
	// Report accumulates detected uninitialized reads.
	Report *diag.Report
	// frameSizes maps FRAME_UNDEF trap sites (application addresses of
	// prologue stack allocations) to the number of frame bytes to mark
	// undefined. Populated at instrumentation time, read by the trap
	// handler.
	frameSizes map[uint64]uint64
}

// New returns a JMSan instance.
func New(cfg Config) *Tool {
	return &Tool{cfg: cfg, Report: &diag.Report{Tool: "jmsan"}, frameSizes: map[uint64]uint64{}}
}

// Name implements core.Tool.
func (t *Tool) Name() string { return "jmsan" }

// ViolationReport implements diag.Reporter.
func (t *Tool) ViolationReport() *diag.Report { return t.Report }

// ConfigKey returns a stable identifier for the configuration fields that
// influence StaticPass output — part of the analysis-cache key
// (internal/anserve).
func (t *Tool) ConfigKey() string {
	return fmt.Sprintf("liveness=%t,elide=%t", t.cfg.UseLiveness, t.cfg.Elide)
}

// RuntimeInit implements core.Tool: installs the definedness trap families
// and interposes the allocator so fresh heap objects start undefined.
//
// frameSizes is additionally pre-populated from the loaded modules' rule
// files: under the static rewriting backend FRAME_UNDEF traps execute from
// ahead-of-time copies without ever passing through this tool's
// instrumentation hooks, so the trap handler must be able to resolve every
// statically-known site up front (dynamic translation re-records the same
// values, so the paths agree).
func (t *Tool) RuntimeInit(rt *core.Runtime) error {
	for _, lm := range rt.Proc.Modules {
		f := rt.Files[lm.Module.Name]
		if f == nil {
			continue
		}
		for i := range f.Rules {
			r := &f.Rules[i]
			if r.ID == rules.FrameUndef {
				t.frameSizes[lm.RuntimeAddr(r.Instr)] = r.Data[1]
			}
		}
	}
	installRuntime(rt.M, t.Report, t.frameSizes)
	return nil
}

// StaticPass implements core.Tool. It emits:
//
//   - MEM_DEF_STORE for every store (writes define their target bytes —
//     stores are never elided, the shadow must stay exact);
//   - FRAME_UNDEF at every prologue stack allocation, poisoning the new
//     frame's locals (below the canary slot when one is installed);
//   - MEM_DEF_LOAD for every load whose value may reach a definedness sink
//     per the def-use taint lattice (analysis.ComputeDefinedness);
//   - MEM_ACCESS_SAFE with SafeNoSink provenance for sink-free loads, and
//     with SafeDefInit provenance (plus a recorded claim) for loads proven
//     definitely-initialized when elision is on.
func (t *Tool) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	g := sc.Graph
	def := analysis.ComputeDefinedness(g, sc.Live)
	if t.cfg.Elide {
		// The VSA result itself is not consulted (def-init claims are
		// syntactic), but running it fills the per-function frame metadata
		// the proof artifact and its verifier depend on.
		sc.EnsureVSA()
	}

	for _, blk := range g.Blocks {
		var plan map[uint64]uint64
		if t.cfg.Elide {
			plan = map[uint64]uint64{}
			defInit.Plan(sc, blk, func(instr, anchor uint64) { plan[instr] = anchor })
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if fs := FrameAllocAt(blk.Instrs, i); fs > 0 {
				out = append(out, rules.Rule{
					ID: rules.FrameUndef, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{sc.LiveWord(in.Addr), fs},
				})
			}
			if !in.IsMemAccess() {
				continue
			}
			if in.IsStore() {
				out = append(out, rules.Rule{
					ID: rules.MemDefStore, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{sc.LiveWord(in.Addr)},
				})
				continue
			}
			if anchor, ok := plan[in.Addr]; ok {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{0, rules.SafeDefInit, anchor},
				})
				continue
			}
			if !def.FeedsSink(in.Addr) {
				out = append(out, rules.Rule{
					ID: rules.MemAccessSafe, BBAddr: blk.Start, Instr: in.Addr,
					Data: [4]uint64{0, rules.SafeNoSink},
				})
				continue
			}
			out = append(out, rules.Rule{
				ID: rules.MemDefLoad, BBAddr: blk.Start, Instr: in.Addr,
				Data: [4]uint64{sc.LiveWord(in.Addr)},
			})
		}
	}
	return out
}

// FrameAllocAt recognises a prologue stack allocation at index i of ins
// (`mov fp, sp` directly followed by `sub sp, N`) and returns the number of
// frame bytes to mark undefined: N, minus the canary slot when the prologue
// installs one (the canary is defined by its own install store and must not
// count as an application local). The static pass, the dynamic fallback
// and the Valgrind-style checker all match frames with it, so their stack
// definedness agrees.
func FrameAllocAt(ins []isa.Instr, i int) uint64 {
	if i < 1 {
		return 0
	}
	in := &ins[i]
	prev := &ins[i-1]
	if in.Op != isa.OpSubRI || in.Rd != isa.SP || in.Imm <= 0 ||
		prev.Op != isa.OpMovRR || prev.Rd != isa.FP || prev.Rb != isa.SP {
		return 0
	}
	size := in.Imm
	for j := i + 1; j < len(ins); j++ {
		if ins[j].Op == isa.OpLdG {
			size -= 8
			break
		}
	}
	if size <= 0 {
		return 0
	}
	return uint64(size)
}

// defInit finds loads whose bytes a dominating same-address store in the
// block definitely initialized, with no intervening frame adjustment, call
// or service trap (any of which could re-undefine the stored bytes).
var defInit = shadow.Dedup{
	Kind:         vsa.ClaimDefInit,
	Barrier:      defInitBarrier,
	StoresAnchor: true,
}

// defInitBarrier reports whether in invalidates every pending store anchor:
// a frame adjustment re-undefines stack bytes, and a call or service trap
// may free+reallocate (and so re-undefine) heap bytes.
func defInitBarrier(in *isa.Instr) bool {
	if in.Op == isa.OpSubRI && in.Rd == isa.SP {
		return true
	}
	switch in.Op {
	case isa.OpCall, isa.OpCallI, isa.OpTrap, isa.OpSyscall:
		return true
	}
	return false
}

// PlanStatic implements core.Tool: rewrites a block using its rules, from
// the rule table (hit) or BlockRules (miss).
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
	for _, r := range p.rules[in.Addr] {
		switch r.ID {
		case rules.MemDefStore:
			e.SetCC(telemetry.CCDefStore)
			p.t.emitStoreUpdate(e, in, r.Data[0])
		case rules.MemDefLoad:
			e.SetCC(telemetry.CCDefCheck)
			p.t.emitLoadCheck(e, in, r.Data[0])
		}
	}
	e.SetCC(telemetry.CCOther)
}

func (p *staticPlan) After(e *dbm.Emitter, idx int) {
	in := &p.bc.AppInstrs[idx]
	for _, r := range p.rules[in.Addr] {
		if r.ID == rules.FrameUndef {
			e.SetCC(telemetry.CCDefStore)
			p.t.frameSizes[in.Addr] = r.Data[1]
			EmitFrameUndef(e, in.Addr)
			e.SetCC(telemetry.CCOther)
		}
	}
}

// BlockRules implements core.Tool: the simpler per-block analysis for
// code only seen dynamically. Every store gets a MEM_DEF_STORE rule and
// every load a MEM_DEF_LOAD rule (no sink filtering: the lattice needs
// whole-CFG liveness), all with all-live liveness, and prologue stack
// allocations are pattern-matched block-locally into FRAME_UNDEF rules.
func (t *Tool) BlockRules(bc *dbm.BlockContext) map[uint64][]rules.Rule {
	out := map[uint64][]rules.Rule{}
	for i := range bc.AppInstrs {
		in := &bc.AppInstrs[i]
		add := func(id rules.ID, size uint64) {
			out[in.Addr] = append(out[in.Addr], rules.Rule{ID: id, BBAddr: bc.Start,
				Instr: in.Addr, Data: [4]uint64{rules.AllLive, size}})
		}
		switch {
		case in.IsMemAccess() && in.IsStore():
			add(rules.MemDefStore, 0)
		case in.IsMemAccess():
			add(rules.MemDefLoad, 0)
		}
		if size := FrameAllocAt(bc.AppInstrs, i); size > 0 {
			add(rules.FrameUndef, size)
		}
	}
	return out
}

// emitLoadCheck emits the inline definedness check for one load using the
// packed liveness word (conservative save/restore when liveness use is
// disabled).
func (t *Tool) emitLoadCheck(e *dbm.Emitter, in *isa.Instr, livePacked uint64) {
	dead, saveFlags := core.LiveSaves(livePacked, t.cfg.UseLiveness)
	shadow.EmitBitmapCheck(e, shadow.AccessPlan(in, dead, saveFlags),
		isa.LayoutDefShadowBase, DefLoadTraps)
}

// emitStoreUpdate emits the shadow define for one store. Flags are never
// touched, so only the scratch register may need saving.
func (t *Tool) emitStoreUpdate(e *dbm.Emitter, in *isa.Instr, livePacked uint64) {
	dead, _ := core.LiveSaves(livePacked, t.cfg.UseLiveness)
	scratch, toSave := dbm.PickScratch(1, dead, dbm.ExcludeOperands(in))
	EmitDefStore(e, in.Addr, in.AccessWidth(), scratch[0], toSave, shadow.AddrOf(in))
}
