// Package jcfi implements JCFI, the hybrid binary control-flow-integrity
// scheme of §4.2: forward edges verified by hash-table lookups against
// per-module target sets (address-taken functions, exports, jump tables,
// with Lockdown-style dynamic updates as modules load), backward edges
// enforced by a precise shadow stack, and the ld.so lazy-resolver
// return-as-call special case handled with a forward check.
package jcfi

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/vsa"
)

// Config selects JCFI variants for the evaluation (Fig. 11: forward-only vs
// full). Narrow additionally consults the value-set analysis
// (internal/vsa): indirect jumps that provably resolve to a singleton
// target or a statically bounded jump table get an inline per-site target
// set instead of the module-global hash-table probe, each narrowing backed
// by a replayable vsa.Claim for cmd/jvet.
type Config struct {
	Forward         bool
	Backward        bool
	Narrow          bool
	HaltOnViolation bool
}

// DefaultConfig enables both edges.
var DefaultConfig = Config{Forward: true, Backward: true}

// siteKind classifies instrumented CTI sites for AIR accounting.
type siteKind uint8

const (
	siteCall siteKind = iota + 1
	siteJump
	siteRet
)

type site struct {
	kind siteKind
	// targets is the size of the allowed-target set at instrumentation
	// time (bytes of reachable code for jumps' range part included).
	targets float64
}

// Tool is the JCFI security technique.
type Tool struct {
	cfg    Config
	Report *diag.Report

	st        *RTState
	rt        *core.Runtime
	sites     map[uint64]site
	codeBytes float64
}

// New returns a JCFI instance.
func New(cfg Config) *Tool {
	return &Tool{cfg: cfg, Report: &diag.Report{Tool: "jcfi"}, sites: map[uint64]site{}}
}

// Name implements core.Tool.
func (t *Tool) Name() string { return "jcfi" }

// ViolationReport implements diag.Reporter.
func (t *Tool) ViolationReport() *diag.Report { return t.Report }

// State returns the run-time table state RuntimeInit installed (nil
// before it).
func (t *Tool) State() *RTState { return t.st }

// ConfigKey returns a stable identifier for the configuration fields that
// influence StaticPass output — part of the analysis-cache key
// (internal/anserve). HaltOnViolation only affects run-time behaviour, so
// it is deliberately excluded.
func (t *Tool) ConfigKey() string {
	return fmt.Sprintf("forward=%t,backward=%t,narrow=%t",
		t.cfg.Forward, t.cfg.Backward, t.cfg.Narrow)
}

// StaticPass implements core.Tool (§4.2.1): determine valid target sets by
// scanning for code pointers refined against function boundaries, and mark
// every indirect CTI (and every call, for the shadow stack) for
// instrumentation.
func (t *Tool) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	g := sc.Graph
	mod := sc.Module

	// Target sets. Address-taken constants from the sliding-window scan,
	// refined: JCFI accepts a constant only if it is a known function
	// entry (§4.2.1) — unlike BinCFI's any-instruction-boundary policy.
	funcEntry := map[uint64]bool{}
	for _, f := range g.Funcs {
		funcEntry[f.Entry] = true
	}
	callT := map[uint64]bool{}
	jumpT := map[uint64]bool{}
	for _, ptr := range ScanCodePointers(mod) {
		if funcEntry[ptr] {
			callT[ptr] = true
			jumpT[ptr] = true
		}
	}
	for _, s := range mod.ExportedSymbols() {
		if s.Kind == obj.SymFunc {
			callT[s.Addr] = true
			jumpT[s.Addr] = true
		}
	}
	// Function entries are valid indirect-jump targets (tail calls).
	for e := range funcEntry {
		jumpT[e] = true
	}
	// Jump-table entries.
	for _, jt := range g.JumpTables {
		for _, tgt := range jt.Targets {
			jumpT[tgt] = true
		}
	}
	// PLT lazy stubs are linkage targets of the GOT-initialised jmpi.
	for i := range mod.Imports {
		callT[mod.Imports[i].PLT+8] = true
		jumpT[mod.Imports[i].PLT+8] = true
	}
	for tgt := range callT {
		kind := rules.TargetCall
		if jumpT[tgt] {
			kind |= rules.TargetJump
		}
		out = append(out, rules.Rule{
			ID: rules.CFITarget, BBAddr: tgt, Instr: tgt,
			Data: [4]uint64{kind},
		})
	}
	for tgt := range jumpT {
		if callT[tgt] {
			continue // already emitted with both kinds
		}
		out = append(out, rules.Rule{
			ID: rules.CFITarget, BBAddr: tgt, Instr: tgt,
			Data: [4]uint64{rules.TargetJump},
		})
	}

	// Check sites.
	var vres *vsa.Result
	if t.cfg.Narrow {
		vres = sc.EnsureVSA()
	}
	for _, blk := range g.Blocks {
		term := blk.Terminator()
		lw := sc.LiveWord(term.Addr)
		inPLT := false
		if sec := mod.SectionAt(blk.Start); sec != nil && sec.Name == ".plt" {
			inPLT = true
		}
		switch term.Op {
		case isa.OpCallI:
			out = append(out,
				rules.Rule{ID: rules.CFICall, BBAddr: blk.Start,
					Instr: term.Addr, Data: [4]uint64{lw}},
				rules.Rule{ID: rules.ShadowPush, BBAddr: blk.Start,
					Instr: term.Addr, Data: [4]uint64{lw}},
			)
		case isa.OpCall:
			out = append(out, rules.Rule{ID: rules.ShadowPush,
				BBAddr: blk.Start, Instr: term.Addr, Data: [4]uint64{lw}})
		case isa.OpJmpI:
			if inPLT {
				// PLT dispatch is an inter-module call in disguise.
				out = append(out, rules.Rule{ID: rules.CFICall,
					BBAddr: blk.Start, Instr: term.Addr, Data: [4]uint64{lw}})
				break
			}
			if vres != nil && blk.Fn != nil {
				if r, ok := narrowRule(sc, vres, blk, lw); ok {
					out = append(out, r)
					break
				}
			}
			var lo, hi, boundaries uint64
			if fn := g.FuncAt(term.Addr); fn != nil {
				lo, hi = fn.Entry, fn.End
				for a := lo; a < hi; a++ {
					if g.IsInstrBoundary(a) {
						boundaries++
					}
				}
			}
			out = append(out, rules.Rule{ID: rules.CFIJump,
				BBAddr: blk.Start, Instr: term.Addr,
				Data: [4]uint64{lw, lo, hi, boundaries}})
		case isa.OpRet:
			if isResolverRet(blk) {
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

// maxInlineTargets bounds the distinct-target count worth inlining as a
// compare chain; larger sets stay on the hash-table probe.
const maxInlineTargets = 16

// narrowRule asks the value-set analysis to resolve the jmpi terminating
// blk. On success it returns a CFI_JUMP_NARROW rule and records the
// matching claim into the proof set.
func narrowRule(sc *core.StaticContext, vres *vsa.Result,
	blk *cfg.BasicBlock, lw uint64) (rules.Rule, bool) {
	jf := vres.ResolveJump(blk)
	if jf == nil || len(jf.Targets) == 0 || len(jf.Targets) > maxInlineTargets {
		return rules.Rule{}, false
	}
	term := blk.Terminator()
	r := rules.Rule{ID: rules.CFIJumpNarrow, BBAddr: blk.Start, Instr: term.Addr}
	c := vsa.Claim{Block: blk.Start, Instr: term.Addr, Targets: jf.Targets}
	if jf.Table {
		count := uint64(jf.IdxHi - jf.IdxLo + 1)
		r.Data = [4]uint64{lw, 1, jf.TableAddr, uint64(jf.IdxLo)<<32 | count}
		c.Kind = vsa.ClaimJumpTable
		c.Table, c.IdxLo, c.IdxHi = jf.TableAddr, jf.IdxLo, jf.IdxHi
	} else {
		r.Data = [4]uint64{lw, 0, jf.Targets[0], 0}
		c.Kind = vsa.ClaimJumpSingle
	}
	sc.Proofs.Record(blk.Fn.Entry, c)
	return r, true
}

// isResolverRet detects the `push rX; ret` lazy-resolver idiom (§4.2.3):
// the instruction immediately before the return pushes the value the return
// will consume, making the return act as an indirect call.
func isResolverRet(blk *cfg.BasicBlock) bool {
	n := len(blk.Instrs)
	return n >= 2 && blk.Instrs[n-1].Op == isa.OpRet &&
		blk.Instrs[n-2].Op == isa.OpPush
}

// RuntimeInit implements core.Tool: shadow stack, violation traps, and
// per-module run-time target tables (built now for already-loaded modules
// and on load for dlopened ones — the Lockdown-style dynamic update of
// footnote 5).
func (t *Tool) RuntimeInit(rt *core.Runtime) error {
	t.rt = rt
	t.Report.HaltOnError = t.cfg.HaltOnViolation
	t.st = NewRTState(rt.M)
	if err := InstallShadowStack(rt.M); err != nil {
		return err
	}
	t.st.InstallViolationTraps(t.Report)
	for _, lm := range rt.Proc.Modules {
		if err := t.setupModule(lm); err != nil {
			return err
		}
	}
	rt.Proc.OnModuleLoad = append(rt.Proc.OnModuleLoad, func(lm *loader.LoadedModule) {
		// Errors during dlopen-time setup surface as missing targets,
		// which fail closed (violations), never open.
		_ = t.setupModule(lm)
	})
	rt.Proc.OnModuleUnload = append(rt.Proc.OnModuleUnload, func(lm *loader.LoadedModule) {
		// Dynamic update on unload (footnote 5): the module's targets
		// stop being valid everywhere, so stale permissions cannot leak
		// onto whatever reuses the address range.
		_ = t.st.RemoveModule(lm.ID)
	})
	return nil
}

// setupModule builds the module's run-time target tables and cross-links
// inter-module call permissions.
func (t *Tool) setupModule(lm *loader.LoadedModule) error {
	id := lm.ID
	set := t.st.Ensure(id)
	t.codeBytes += float64(execBytes(lm.Module))

	var callLink, jumpLink []uint64
	if f, ok := t.rt.Files[lm.Name]; ok {
		for _, r := range f.Rules {
			if r.ID != rules.CFITarget {
				continue
			}
			if r.Data[0]&rules.TargetCall != 0 {
				callLink = append(callLink, r.Instr)
			}
			if r.Data[0]&rules.TargetJump != 0 {
				jumpLink = append(jumpLink, r.Instr)
			}
		}
	} else {
		// No static hints: load-time analysis (§4.2.2).
		callLink, jumpLink = LoadTimeScan(lm)
	}
	for _, a := range callLink {
		rtAddr := lm.RuntimeAddr(a)
		if err := t.st.AddCallTarget(id, rtAddr); err != nil {
			return err
		}
		set.Exported[rtAddr] = true
	}
	for _, a := range jumpLink {
		if err := t.st.AddJumpTarget(id, lm.RuntimeAddr(a)); err != nil {
			return err
		}
	}
	// Inter-module (§4.2): this module's outward-visible targets become
	// valid call targets for every other module (and vice versa), and
	// everything lands in the global table serving dynamically generated
	// code.
	// The VM tables use open addressing, so insertion order shapes probe
	// chains and thus charged lookup cycles: iterate modules and targets in
	// sorted order to keep figure cycle counts run-to-run deterministic.
	ownExported := sortedTargets(set.Exported)
	for _, otherID := range sortedModuleIDs(t.st.sets) {
		if otherID == id || otherID == globalTableID {
			continue
		}
		for _, tgt := range sortedTargets(t.st.sets[otherID].Exported) {
			if err := t.st.AddCallTarget(id, tgt); err != nil {
				return err
			}
		}
		for _, tgt := range ownExported {
			if err := t.st.AddCallTarget(otherID, tgt); err != nil {
				return err
			}
		}
	}
	for _, tgt := range ownExported {
		if err := t.st.AddCallTarget(globalTableID, tgt); err != nil {
			return err
		}
		if err := t.st.AddJumpTarget(globalTableID, tgt); err != nil {
			return err
		}
	}
	return nil
}

func execBytes(mod *obj.Module) uint64 {
	var n uint64
	for _, sec := range mod.ExecSections() {
		n += uint64(len(sec.Data))
	}
	return n
}

// moduleID returns the table index serving a block context.
func moduleID(bc *dbm.BlockContext) int {
	if bc.Module != nil {
		return bc.Module.ID
	}
	return globalTableID
}

// PlanStatic implements core.Tool: the rule-driven per-instruction plan for
// the statically-guided hit path, composable with other tools' plans.
func (t *Tool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) core.InstrPlan {
	base := uint64(0)
	if bc.Module != nil && bc.Module.PIC {
		base = bc.Module.LoadBase
	}
	return &staticPlan{t: t, bc: bc, rules: instrRules,
		id: moduleID(bc), base: base}
}

type staticPlan struct {
	t     *Tool
	bc    *dbm.BlockContext
	rules map[uint64][]rules.Rule
	id    int
	base  uint64
}

func (p *staticPlan) After(*dbm.Emitter, int) {}

func (p *staticPlan) Before(e *dbm.Emitter, idx int) {
	t, bc, id, base := p.t, p.bc, p.id, p.base
	in := &bc.AppInstrs[idx]
	for _, r := range p.rules[in.Addr] {
		dead, saveFlags := core.LiveSaves(r.Data[0], true)
		switch r.ID {
		case rules.ShadowPush:
			e.SetCC(telemetry.CCShadowStack)
		default:
			e.SetCC(telemetry.CCCFICheck)
		}
		switch r.ID {
		case rules.CFICall:
			if t.cfg.Forward {
				EmitCallCheck(e, in, CallTableBase(id), saveFlags, dead)
				t.recordSite(in.Addr, siteCall, float64(len(t.st.Ensure(id).Call)))
			}
		case rules.CFIJump:
			if t.cfg.Forward {
				lo, hi := r.Data[1]+base, r.Data[2]+base
				if r.Data[1] == 0 && r.Data[2] == 0 {
					lo, hi = 0, 0
				}
				EmitJumpCheck(e, in, lo, hi, JumpTableBase(id), saveFlags, dead)
				// The hybrid's policy restricts jump targets to
				// statically recovered instruction boundaries; the
				// metric counts those rather than raw range bytes
				// (footnote 15's hybrid-vs-dyn AIR gap).
				targets := float64(r.Data[3])
				if targets == 0 {
					targets = float64(hi - lo)
				}
				t.recordSite(in.Addr, siteJump,
					targets+float64(len(t.st.Ensure(id).Jump)))
			}
		case rules.CFIJumpNarrow:
			if t.cfg.Forward {
				targets := narrowTargets(bc, &r, base)
				if len(targets) == 0 {
					// Target materialisation failed (e.g. stripped
					// section): fail closed onto the module-global
					// table probe.
					EmitJumpCheck(e, in, 0, 0, JumpTableBase(id), saveFlags, dead)
					t.recordSite(in.Addr, siteJump,
						float64(len(t.st.Ensure(id).Jump)))
					break
				}
				EmitNarrowJumpCheck(e, in, targets, saveFlags, dead)
				t.recordSite(in.Addr, siteJump, float64(len(targets)))
			}
		case rules.CFIRet:
			if t.cfg.Backward {
				EmitRetCheck(e, in, saveFlags, dead)
				t.recordSite(in.Addr, siteRet, 1)
			}
		case rules.CFIResolverRet:
			if t.cfg.Forward {
				EmitResolverRetCheck(e, in, CallTableBase(id), saveFlags, dead)
				t.recordSite(in.Addr, siteCall, float64(len(t.st.Ensure(id).Call)))
			}
		case rules.ShadowPush:
			if t.cfg.Backward {
				EmitShadowPush(e, in, saveFlags, dead)
			}
		}
	}
	e.SetCC(telemetry.CCOther)
}

// narrowTargets materialises the run-time target set of a CFI_JUMP_NARROW
// rule: the singleton from the rule data, or the claimed jump-table slice
// read back from the module image, rebased for PIC modules. Returns nil
// (caller fails closed) when the words cannot be read.
func narrowTargets(bc *dbm.BlockContext, r *rules.Rule, base uint64) []uint64 {
	if r.Data[1] == 0 {
		return []uint64{r.Data[2] + base}
	}
	if bc.Module == nil {
		return nil
	}
	idxLo := r.Data[3] >> 32
	count := r.Data[3] & 0xffffffff
	if count == 0 || count > 512 {
		return nil
	}
	seen := map[uint64]bool{}
	var out []uint64
	for k := uint64(0); k < count; k++ {
		wordAddr := r.Data[2] + (idxLo+k)*8
		sec := bc.Module.SectionAt(wordAddr)
		if sec == nil || !sec.Contains(wordAddr+7) {
			return nil
		}
		tgt := binary.LittleEndian.Uint64(sec.Data[wordAddr-sec.Addr:]) + base
		if !seen[tgt] {
			seen[tgt] = true
			out = append(out, tgt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > maxInlineTargets {
		return nil
	}
	return out
}

// PlanDyn implements core.Tool (§4.2.2): block-local identification of
// indirect CTIs with conservative save/restore, the resolver idiom handled
// by pattern matching, and the module's load-time tables used for targets.
func (t *Tool) PlanDyn(bc *dbm.BlockContext) core.InstrPlan {
	return &dynPlan{t: t, bc: bc, id: moduleID(bc)}
}

type dynPlan struct {
	t  *Tool
	bc *dbm.BlockContext
	id int
}

func (p *dynPlan) After(*dbm.Emitter, int) {}

func (p *dynPlan) Before(e *dbm.Emitter, idx int) {
	t, bc, id := p.t, p.bc, p.id
	ins := bc.AppInstrs
	in := &ins[idx]
	isLast := idx == len(ins)-1
	if isLast {
		switch in.Op {
		case isa.OpCallI:
			if t.cfg.Forward {
				e.SetCC(telemetry.CCCFICheck)
				EmitCallCheck(e, in, CallTableBase(id), true, nil)
				t.recordSite(in.Addr, siteCall, float64(len(t.st.Ensure(id).Call)))
			}
			if t.cfg.Backward {
				e.SetCC(telemetry.CCShadowStack)
				EmitShadowPush(e, in, true, nil)
			}
		case isa.OpCall:
			if t.cfg.Backward {
				e.SetCC(telemetry.CCShadowStack)
				EmitShadowPush(e, in, true, nil)
			}
		case isa.OpJmpI:
			if t.cfg.Forward {
				e.SetCC(telemetry.CCCFICheck)
				// Block-local PLT-dispatch idiom (ldpc rX; jmpi rX):
				// an inter-module call in disguise, checked against
				// the call table.
				if idx > 0 && ins[idx-1].Op == isa.OpLdPC &&
					ins[idx-1].Rd == in.Rd {
					EmitCallCheck(e, in, CallTableBase(id), true, nil)
					t.recordSite(in.Addr, siteCall,
						float64(len(t.st.Ensure(id).Call)))
					break
				}
				// No static CFG block-locally: fall back to the
				// nearest-symbol function range plus the table (this
				// coarser range is why JCFI-dyn's jump AIR is below
				// the hybrid's, §6.2.2 footnote 15).
				var lo, hi uint64
				if bc.Module != nil {
					lo, hi = NearestFuncRange(bc.Module, in.Addr)
				}
				EmitJumpCheck(e, in, lo, hi, JumpTableBase(id), true, nil)
				t.recordSite(in.Addr, siteJump,
					float64(hi-lo)+float64(len(t.st.Ensure(id).Jump)))
			}
		case isa.OpRet:
			resolver := idx > 0 && ins[idx-1].Op == isa.OpPush
			if resolver && t.cfg.Forward {
				e.SetCC(telemetry.CCCFICheck)
				EmitResolverRetCheck(e, in, CallTableBase(id), true, nil)
				t.recordSite(in.Addr, siteCall, float64(len(t.st.Ensure(id).Call)))
			} else if !resolver && t.cfg.Backward {
				e.SetCC(telemetry.CCCFICheck)
				EmitRetCheck(e, in, true, nil)
				t.recordSite(in.Addr, siteRet, 1)
			}
		}
		e.SetCC(telemetry.CCOther)
	}
}

func (t *Tool) recordSite(addr uint64, kind siteKind, targets float64) {
	if _, ok := t.sites[addr]; !ok {
		t.sites[addr] = site{kind: kind, targets: targets}
	}
}

// DynamicAIR returns the average indirect-target reduction (percent) over
// the indirect CTI sites that executed during the run — the Lockdown-style
// DAIR of Fig. 12. Space is the total executable bytes of loaded modules.
func (t *Tool) DynamicAIR() float64 {
	sizes := make([]float64, 0, len(t.sites))
	for _, s := range t.sites {
		sizes = append(sizes, s.targets)
	}
	return metrics.AIR(sizes, t.codeBytes)
}

// DAIRBreakdown splits the dynamic AIR by edge kind ("call", "jump",
// "ret") — the per-kind view behind footnote 15's observation that JCFI's
// jump AIR exceeds Lockdown's while its net AIR sits slightly below.
// Kinds with no executed sites are absent from the map.
func (t *Tool) DAIRBreakdown() map[string]float64 {
	if t.codeBytes == 0 {
		return nil
	}
	sizes := map[siteKind][]float64{}
	for _, s := range t.sites {
		sizes[s.kind] = append(sizes[s.kind], s.targets)
	}
	names := map[siteKind]string{siteCall: "call", siteJump: "jump", siteRet: "ret"}
	out := map[string]float64{}
	for k, ss := range sizes {
		out[names[k]] = metrics.AIR(ss, t.codeBytes)
	}
	return out
}
