package baseline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/jcfi"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obj"
	"repro/internal/rules"
)

// ErrRewriteFailed reports that BinCFI's static rewriting produced a broken
// binary. Code/data disambiguation is undecidable (§2.1); when the linear
// disassembly the rewriter relies on desynchronises against actual control
// flow (data embedded in code sections), the rewritten output corrupts the
// data and the binary does not run — the gamess/zeusmp failures of §6.2.1.
var ErrRewriteFailed = errors.New("bincfi: static rewriting failed (code/data ambiguity)")

// BinCFITool models the static CFI of Zhang & Sekar:
//
//   - forward edges: any code-pointer constant found by the sliding-window
//     scan that lands at an instruction boundary is a permitted target — no
//     function-boundary refinement (the weaker policy JCFI improves on);
//   - returns: any call-preceded instruction is a permitted return target —
//     no shadow stack;
//   - purely static: zero translation cost, identity for unseen code.
type BinCFITool struct {
	Report *diag.Report

	st    *jcfi.RTState
	rt    *core.Runtime
	sites map[uint64]float64 // CTI addr -> |T| at instrument time
	space float64
}

// NewBinCFI returns the static CFI baseline.
func NewBinCFI() *BinCFITool {
	return &BinCFITool{Report: &diag.Report{Tool: "bincfi", Unattributed: true}, sites: map[uint64]float64{}}
}

// Name implements core.Tool.
func (t *BinCFITool) Name() string { return "bincfi-sim" }

// ViolationReport implements diag.Reporter.
func (t *BinCFITool) ViolationReport() *diag.Report { return t.Report }

// CheckInput rejects modules whose .text contains bytes that linear
// disassembly misclassifies relative to sound recovery — static rewriting of
// such modules produces broken binaries.
func (t *BinCFITool) CheckInput(mod *obj.Module, g interface {
	IsInstrBoundary(uint64) bool
	NumInstrs() int
}) error {
	boundaries := jcfi.InstrBoundaries(mod)
	// Every soundly recovered instruction must be a linear-sweep boundary;
	// a recovered instruction the sweep missed means the rewriter would
	// have relocated through the middle of it.
	for _, sec := range mod.ExecSections() {
		pc := sec.Addr
		end := sec.Addr + uint64(len(sec.Data))
		for pc < end {
			if g.IsInstrBoundary(pc) && !boundaries[pc] {
				return fmt.Errorf("%w: %s at %#x", ErrRewriteFailed, mod.Name, pc)
			}
			pc++
		}
	}
	return nil
}

// StaticPass implements core.Tool (§4.2.1's description of BinCFI): scan for
// code pointers, accept anything at an instruction boundary, collect
// call-preceded addresses as return targets, and mark indirect CTIs.
func (t *BinCFITool) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	mod := sc.Module
	g := sc.Graph
	boundaries := jcfi.InstrBoundaries(mod)

	targets := map[uint64]uint64{} // addr -> kind bits
	for _, ptr := range jcfi.ScanCodePointers(mod) {
		if boundaries[ptr] {
			targets[ptr] |= rules.TargetCall | rules.TargetJump
		}
	}
	for _, s := range mod.ExportedSymbols() {
		if s.Kind == obj.SymFunc {
			targets[s.Addr] |= rules.TargetCall | rules.TargetJump
		}
	}
	for i := range mod.Imports {
		targets[mod.Imports[i].PLT+8] |= rules.TargetCall | rules.TargetJump
	}
	// Return targets: every call-preceded instruction.
	const retKind = uint64(4)
	for _, blk := range g.Blocks {
		term := blk.Terminator()
		if term.Op == isa.OpCall || term.Op == isa.OpCallI {
			targets[term.Addr+uint64(term.Size)] |= retKind
		}
	}
	for tgt, kind := range targets {
		out = append(out, rules.Rule{ID: rules.CFITarget, BBAddr: tgt,
			Instr: tgt, Data: [4]uint64{kind}})
	}

	for _, blk := range g.Blocks {
		term := blk.Terminator()
		lw := rules.PackLiveness(0xffff, true, nil) // static rewriter: conservative
		switch term.Op {
		case isa.OpCallI:
			out = append(out, rules.Rule{ID: rules.CFICall,
				BBAddr: blk.Start, Instr: term.Addr, Data: [4]uint64{lw}})
		case isa.OpJmpI:
			out = append(out, rules.Rule{ID: rules.CFIJump,
				BBAddr: blk.Start, Instr: term.Addr, Data: [4]uint64{lw}})
		case isa.OpRet:
			// The loader's lazy-resolver `push rX; ret` uses a return as
			// a call; BinCFI handles it by modifying the loader to use
			// an indirect jump instead, so it gets the (weak) jump
			// policy rather than the call-preceded return policy
			// (§4.2.3).
			n := len(blk.Instrs)
			if n >= 2 && blk.Instrs[n-2].Op == isa.OpPush {
				out = append(out, rules.Rule{ID: rules.CFIResolverRet,
					BBAddr: blk.Start, Instr: term.Addr, Data: [4]uint64{lw}})
			} else {
				out = append(out, rules.Rule{ID: rules.CFIRet,
					BBAddr: blk.Start, Instr: term.Addr, Data: [4]uint64{lw}})
			}
		}
	}
	return out
}

// PlanStatic implements core.Tool: emit the weak-policy checks against the
// module's tables. BinCFI uses one combined target set for calls and jumps.
func (t *BinCFITool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) core.InstrPlan {
	p := &binCFIPlan{t: t, ins: bc.AppInstrs, rules: instrRules}
	if bc.Module != nil {
		p.id = bc.Module.ID
		p.modLo, p.modHi = jcfi.ModuleExecRange(bc.Module)
	}
	return p
}

type binCFIPlan struct {
	t            *BinCFITool
	ins          []isa.Instr
	rules        map[uint64][]rules.Rule
	id           int
	modLo, modHi uint64
}

func (p *binCFIPlan) Before(e *dbm.Emitter, idx int) {
	t, id, in := p.t, p.id, &p.ins[idx]
	for _, r := range p.rules[in.Addr] {
		switch r.ID {
		case rules.CFICall:
			jcfi.EmitCallCheck(e, in, jcfi.CallTableBase(id), true, nil)
			t.recordSite(in.Addr, float64(len(t.st.Ensure(id).Call)))
		case rules.CFIJump:
			// BinCFI translates indirect jumps through an
			// address-translation table covering every instruction
			// boundary of the module, plus cross-module identified
			// targets: modelled as a module-range fast path with
			// the unioned call table behind it.
			jcfi.EmitJumpCheck(e, in, p.modLo, p.modHi,
				jcfi.CallTableBase(id), true, nil)
			t.recordSite(in.Addr,
				float64(p.modHi-p.modLo)+float64(len(t.st.Ensure(id).Call)))
		case rules.CFIResolverRet:
			jcfi.EmitResolverRetCheck(e, in, jcfi.CallTableBase(id), true, nil)
			t.recordSite(in.Addr, float64(len(t.st.Ensure(id).Call)))
		case rules.CFIRet:
			jcfi.EmitRetTableCheck(e, in, jcfi.RetTableBase(id), true, nil)
			t.recordSite(in.Addr, float64(len(t.st.Ensure(id).Ret)))
		}
	}
}

func (*binCFIPlan) After(*dbm.Emitter, int) {}

func (t *BinCFITool) recordSite(addr uint64, targets float64) {
	if _, ok := t.sites[addr]; !ok {
		t.sites[addr] = targets
	}
}

// BlockRules implements core.Tool: no rules — statically rewritten
// binaries leave unseen code unprotected.
func (t *BinCFITool) BlockRules(*dbm.BlockContext) map[uint64][]rules.Rule { return nil }

// RuntimeInit implements core.Tool: build per-module target tables from the
// static rules; cross-module calls are permitted to any other module's
// scan-identified targets (BinCFI's modular policy unions target sets).
func (t *BinCFITool) RuntimeInit(rt *core.Runtime) error {
	t.rt = rt
	t.st = jcfi.NewRTState(rt.M)
	t.st.InstallViolationTraps(t.Report)
	rt.DBM.Costs = StaticRewriteCosts

	const retKind = uint64(4)
	type modTargets struct {
		lm   *loader.LoadedModule
		call []uint64
		ret  []uint64
	}
	var all []modTargets
	for _, lm := range rt.Proc.Modules {
		t.space += float64(execBytes(lm.Module))
		mt := modTargets{lm: lm}
		if f, ok := rt.Files[lm.Name]; ok {
			for _, r := range f.Rules {
				if r.ID != rules.CFITarget {
					continue
				}
				if r.Data[0]&(rules.TargetCall|rules.TargetJump) != 0 {
					mt.call = append(mt.call, lm.RuntimeAddr(r.Instr))
				}
				if r.Data[0]&retKind != 0 {
					mt.ret = append(mt.ret, lm.RuntimeAddr(r.Instr))
				}
			}
		}
		all = append(all, mt)
	}
	// Union across modules: BinCFI allows cross-module transfers to any
	// identified target (its weaker policy, §4.2.3).
	for _, mt := range all {
		for _, other := range all {
			for _, a := range other.call {
				if err := t.st.AddCallTarget(mt.lm.ID, a); err != nil {
					return err
				}
			}
			for _, a := range other.ret {
				if err := t.st.AddRetTarget(mt.lm.ID, a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AIR returns BinCFI's static average indirect-target reduction over its
// instrumented sites.
func (t *BinCFITool) AIR() float64 {
	sizes := make([]float64, 0, len(t.sites))
	for _, n := range t.sites {
		sizes = append(sizes, n)
	}
	return metrics.AIR(sizes, t.space)
}

func execBytes(mod *obj.Module) uint64 {
	var n uint64
	for _, sec := range mod.ExecSections() {
		n += uint64(len(sec.Data))
	}
	return n
}
