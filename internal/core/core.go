// Package core implements the Janitizer framework itself (Fig. 1): a static
// analyzer that runs strong whole-module analyses and encodes the results as
// rewrite rules, and a dynamic-modifier frontend that loads those rules,
// classifies code as statically-seen or dynamically-discovered, and drives a
// security tool's instrumentation through the dynamic binary modifier.
//
// Security techniques (JASan, JCFI, and the baselines) plug in through the
// Tool interface, providing two rule sources — a static pass able to do
// cross-block analysis and a simpler fallback pass that works one basic
// block at a time (§3.4.3) — and one rule interpreter that rewrites a block
// from either source's rules.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/vsa"
)

// StaticContext hands a tool's static pass the module plus every core and
// enhanced analysis result (Fig. 2a).
type StaticContext struct {
	Module *obj.Module
	Graph  *cfg.Graph
	// Live is inter-procedural register+flag liveness (§3.3.2, §4.1.2).
	Live *analysis.Liveness
	// Loops is the SCEV-style loop/bound analysis (§3.3.2).
	Loops *analysis.LoopAnalysis
	// Canaries are the detected stack-canary sites (§3.3.3).
	Canaries []analysis.CanarySite
	// DefUse is the diffuse-chain tracing (§3.3.3).
	DefUse *analysis.DefUse
	// Proofs collects the replayable claims behind every VSA-backed
	// elision/narrowing decision a tool makes in this pass.
	Proofs *vsa.ProofSet

	vsaRes *vsa.Result
}

// EnsureVSA lazily runs the value-set analysis over the module, shared by
// every tool consulting it during one static pass.
func (sc *StaticContext) EnsureVSA() *vsa.Result {
	if sc.vsaRes == nil {
		sc.vsaRes = vsa.Analyze(sc.Module, sc.Graph, sc.Canaries)
	}
	return sc.vsaRes
}

// LiveWord packs the rule liveness word at addr: the registers and flags
// live on entry, plus up to three dead registers usable as scratch.
func (sc *StaticContext) LiveWord(addr uint64) uint64 {
	lp := sc.Live.LiveIn(addr)
	var free []uint8
	for _, r := range sc.Live.FreeRegs(addr, 3) {
		free = append(free, uint8(r))
	}
	return rules.PackLiveness(uint16(lp.Regs), lp.Flags, free)
}

// LiveSaves decodes a LiveWord into the dead registers instrumentation may
// use as scratch and whether it must save the flags. With use false (the
// tool runs without liveness) or word rules.AllLive (a fallback block's
// rule) it gives the conservative answer: no dead register, flags saved.
func LiveSaves(word uint64, use bool) (dead []isa.Register, saveFlags bool) {
	if !use {
		return nil, true
	}
	_, flagsLive, free := rules.UnpackLiveness(word)
	for _, f := range free {
		dead = append(dead, isa.Register(f))
	}
	return dead, flagsLive
}

// InstrPlan is one tool's per-block instrumentation plan: hooks invoked
// around every application instruction by the shared emission walk. Each
// hook's output must be self-contained (its internal meta branches resolve
// within the instructions it emits), which is what makes plans from
// different tools composable in a single pass over the block (MultiTool).
type InstrPlan interface {
	// Before emits instrumentation ahead of application instruction idx.
	Before(e *dbm.Emitter, idx int)
	// After emits instrumentation behind application instruction idx.
	After(e *dbm.Emitter, idx int)
}

// Tool is one security technique plugged into Janitizer. It rewrites a
// block only through per-instruction plans, so every tool composes under
// MultiTool and its static plans can be captured for static rewriting.
type Tool interface {
	// Name identifies the tool ("jasan", "jcfi", ...).
	Name() string
	// StaticPass analyzes one module and returns its rewrite rules.
	// Janitizer adds NoOp marking for uncovered blocks afterwards.
	StaticPass(sc *StaticContext) []rules.Rule
	// PlanStatic plans the rewrite of a block from its rules: a statically
	// seen block's rules from the rule table (the hit path), or a block
	// never seen statically's rules from BlockRules (the miss path).
	// instrRules maps run-time instruction addresses to their rules. A nil
	// plan places the block unmodified.
	PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) InstrPlan
	// BlockRules is the fallback rule source for a block never seen
	// statically: the rules a block-local analysis finds, keyed by
	// run-time instruction address, with the rule IDs and data layout of
	// StaticPass (addresses in Data stay module-relative, and every
	// liveness word is rules.AllLive). Tools whose PlanStatic needs no
	// rules return nil.
	BlockRules(bc *dbm.BlockContext) map[uint64][]rules.Rule
	// RuntimeInit installs the tool's run-time state (trap handlers,
	// shadow regions, target tables) before execution starts.
	RuntimeInit(rt *Runtime) error
}

// NullTool is the null client as a Tool (Fig. 8's DynamoRIO baseline): no
// rules, every block placed unmodified.
type NullTool struct{}

func (NullTool) Name() string                                                    { return "null-client" }
func (NullTool) StaticPass(*StaticContext) []rules.Rule                          { return nil }
func (NullTool) RuntimeInit(*Runtime) error                                      { return nil }
func (NullTool) PlanStatic(*dbm.BlockContext, map[uint64][]rules.Rule) InstrPlan { return nil }
func (NullTool) BlockRules(*dbm.BlockContext) map[uint64][]rules.Rule            { return nil }

// ArtifactTool is a Tool whose analysis product is a custom artifact (for
// example internal/jlint's bug report) rather than a rewrite-rule file. The
// service layer routes such tools through AnalyzeArtifact and validates
// fleet peer fills with ValidateArtifact in place of the rules.Unmarshal
// check. Artifacts must be byte-deterministic: the content-addressed cache
// and cross-node verification depend on it.
type ArtifactTool interface {
	Tool
	// AnalyzeArtifact produces the tool's artifact bytes for mod.
	AnalyzeArtifact(mod *obj.Module) ([]byte, error)
	// ValidateArtifact checks that b is a well-formed artifact produced
	// for exactly mod (an untrusted peer fill).
	ValidateArtifact(mod *obj.Module, b []byte) error
}

// AnalyzeModule runs Janitizer's static analyzer over one module for one
// tool: disassembly, CFG recovery over all executable sections, generic and
// enhanced analyses, the tool's custom security analysis, and no-op marking
// of untouched blocks (§3.3.4). It returns the module's rewrite-rule file.
func AnalyzeModule(mod *obj.Module, tool Tool) (*rules.File, error) {
	f, _, err := AnalyzeModuleProofs(mod, tool)
	return f, err
}

// AnalyzeModuleCtx is AnalyzeModule with trace-context propagation: when
// ctx carries an active telemetry span (an anserve request), the
// "core.analyze" span nests under it instead of starting a fresh trace.
func AnalyzeModuleCtx(ctx context.Context, mod *obj.Module, tool Tool) (*rules.File, error) {
	f, _, err := analyzeModuleProofs(ctx, mod, tool)
	return f, err
}

// AnalyzeModuleProofs is AnalyzeModule, additionally returning the proof
// artifact covering every VSA-backed elision/narrowing decision the tool
// made. The artifact is finalized (sorted, per-function metadata attached)
// and may be empty when the tool's configuration proves nothing.
func AnalyzeModuleProofs(mod *obj.Module, tool Tool) (*rules.File, *vsa.ProofSet, error) {
	return analyzeModuleProofs(context.Background(), mod, tool)
}

func analyzeModuleProofs(ctx context.Context, mod *obj.Module, tool Tool) (*rules.File, *vsa.ProofSet, error) {
	sp, _ := telemetry.StartSpanFrom(ctx, "core.analyze",
		telemetry.String("module", mod.Name),
		telemetry.String("tool", ToolKey(tool)))
	defer sp.End()

	csp := sp.Child("cfg.build")
	g, err := cfg.Build(mod)
	csp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", mod.Name, err)
	}
	sc := &StaticContext{
		Module: mod,
		Graph:  g,
		Proofs: vsa.NewProofSet(mod.Name, ToolKey(tool)),
	}
	for _, pass := range []struct {
		name string
		run  func()
	}{
		{"analysis.liveness", func() { sc.Live = analysis.ComputeLiveness(g, true) }},
		{"analysis.loops", func() { sc.Loops = analysis.AnalyzeLoops(g) }},
		{"analysis.canaries", func() { sc.Canaries = analysis.FindCanaries(g) }},
		{"analysis.defuse", func() { sc.DefUse = analysis.ComputeDefUse(g) }},
	} {
		psp := sp.Child(pass.name)
		pass.run()
		psp.End()
	}
	ssp := sp.Child("tool.static-pass")
	rs := tool.StaticPass(sc)
	ssp.End()

	// No-op marking: every recovered block without a rule gets an
	// explicit NoOp rule, so the dynamic modifier can distinguish
	// "statically proven to need nothing" from "never statically seen".
	covered := map[uint64]bool{}
	for _, r := range rs {
		covered[r.BBAddr] = true
	}
	for start := range g.Blocks {
		if !covered[start] {
			rs = append(rs, rules.Rule{ID: rules.NoOp, BBAddr: start})
		}
	}
	canonicalize(rs)
	sc.Proofs.Finalize(sc.vsaRes)
	sp.SetAttr(telemetry.Int("rules", int64(len(rs))))
	return &rules.File{Module: mod.Name, Rules: rs}, sc.Proofs, nil
}

// ToolKey identifies a (tool, configuration) pair: the tool name plus its
// ConfigKey when it has one. Proof artifacts, rewrite plans and caches all
// key on it so differently-configured instances never alias.
func ToolKey(tool Tool) string {
	if ck, ok := tool.(interface{ ConfigKey() string }); ok {
		return tool.Name() + ":" + ck.ConfigKey()
	}
	return tool.Name()
}

// canonicalize sorts rules into a deterministic total order. Tools and the
// no-op marking above iterate CFG maps, so emission order varies run to run;
// content-addressed caching (internal/anserve) requires that analyzing the
// same module twice marshal to identical bytes. The stable sort preserves a
// tool's relative emission order for rules that share every key field.
func canonicalize(rs []rules.Rule) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := &rs[i], &rs[j]
		if a.BBAddr != b.BBAddr {
			return a.BBAddr < b.BBAddr
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		for k := range a.Data {
			if a.Data[k] != b.Data[k] {
				return a.Data[k] < b.Data[k]
			}
		}
		return false
	})
}

// AnalyzeProgram analyzes the main module and its entire ldd-visible
// dependency closure (§3.3.1), returning one rule file per module. A shared
// library's analysis would be reused across programs; callers may cache the
// returned files — or use internal/anserve, which analyzes the closure
// concurrently against a content-addressed cache.
func AnalyzeProgram(main *obj.Module, reg loader.Registry, tool Tool) (map[string]*rules.File, error) {
	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := make(map[string]*rules.File, len(mods))
	for _, m := range mods {
		f, err := AnalyzeModule(m, tool)
		if err != nil {
			return nil, err
		}
		out[m.Name] = f
	}
	return out, nil
}

// CoverageStats counts how blocks were classified at run time — the data
// behind Fig. 14.
type CoverageStats struct {
	// StaticInstrumented blocks hit in a rule table with real rules.
	StaticInstrumented uint64 `json:"static_instrumented"`
	// StaticNoOp blocks hit in a rule table with only a NoOp rule.
	StaticNoOp uint64 `json:"static_noop"`
	// Fallback blocks missed every table and went through the dynamic
	// analyzer (dynamically generated, dlopened without rules, or
	// statically undiscovered).
	Fallback uint64 `json:"fallback"`
}

// Total returns the number of distinct blocks translated.
func (c CoverageStats) Total() uint64 {
	return c.StaticInstrumented + c.StaticNoOp + c.Fallback
}

// DynamicFraction returns the fraction of distinct executed blocks that were
// only seen dynamically (Fig. 14).
func (c CoverageStats) DynamicFraction() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Fallback) / float64(c.Total())
}

// Runtime is Janitizer's dynamic-modifier frontend: per-module rewrite-rule
// hash tables with PIC load-time adjustment (Fig. 5), the static/dynamic
// code classifier (Fig. 4), and the bridge to the tool's handlers.
type Runtime struct {
	M    *vm.Machine
	Proc *loader.Process
	Tool Tool
	// Files are the rule files available to the frontend, keyed by module
	// name — the per-module files written by the static analyzer. Modules
	// loaded later (dlopen) with an associated file get tables too
	// (§3.4.3, footnote 1).
	Files map[string]*rules.File

	// DBM is the underlying dynamic binary modifier.
	DBM *dbm.DBM
	// Coverage is the classifier's accounting.
	Coverage CoverageStats

	tables map[string]*rules.Table
}

// NewRuntime wires a tool into a loaded process. It must be created before
// modules are loaded so the module-load hook can build rule tables; use
// NewRuntime followed by Proc.LoadProgram.
func NewRuntime(m *vm.Machine, proc *loader.Process, tool Tool,
	files map[string]*rules.File) *Runtime {

	rt := &Runtime{
		M: m, Proc: proc, Tool: tool, Files: files,
		tables: map[string]*rules.Table{},
	}
	rt.DBM = dbm.New(m, proc, &hybridClient{rt: rt})
	proc.OnModuleLoad = append(proc.OnModuleLoad, rt.onModuleLoad)
	proc.OnModuleUnload = append(proc.OnModuleUnload, rt.onModuleUnload)
	return rt
}

// onModuleLoad builds the module's rewrite-rule hash table at load time,
// adjusting addresses by the load base for PIC modules (Fig. 5a).
func (rt *Runtime) onModuleLoad(lm *loader.LoadedModule) {
	f, ok := rt.Files[lm.Name]
	if !ok {
		return // no rule file: all its blocks take their rules from BlockRules
	}
	base := uint64(0)
	if lm.PIC {
		base = lm.LoadBase
	}
	rt.tables[lm.Name] = rules.NewTable(f, base)
}

// onModuleUnload drops the module's rule table — a constant-time delete,
// which is the point of keeping per-module tables (footnote 2: no scan for
// stale hints even when another module later reuses the addresses) — and
// evicts its translated code.
func (rt *Runtime) onModuleUnload(lm *loader.LoadedModule) {
	delete(rt.tables, lm.Name)
	lo, span := lm.Extent()
	start := lm.RuntimeAddr(lo)
	rt.DBM.FlushRange(start, start+span)
}

// Table returns the rule table for a module name, or nil.
func (rt *Runtime) Table(module string) *rules.Table { return rt.tables[module] }

// Run initialises the tool runtime and executes the program from entry under
// the hybrid dynamic modifier.
func (rt *Runtime) Run(entry uint64) error {
	if err := rt.Tool.RuntimeInit(rt); err != nil {
		return fmt.Errorf("core: runtime init: %w", err)
	}
	return rt.DBM.Run(entry)
}

// hybridClient is the DBM client implementing Fig. 4: classify each new
// block via the per-module hash tables, take its rules from the table (hit)
// or the tool's block-local analysis (miss), and emit the rule
// interpreter's plan.
type hybridClient struct {
	rt *Runtime
}

func (h *hybridClient) OnBlock(ctx *dbm.BlockContext) []dbm.CInstr {
	return emitPlan(ctx, h.plan(ctx))
}

// emitPlan runs the shared emission walk: for every application
// instruction, the plan's Before hook, the instruction itself, then its
// After hook. A nil plan places the block unmodified.
func emitPlan(bc *dbm.BlockContext, p InstrPlan) []dbm.CInstr {
	e := &dbm.Emitter{Out: make([]dbm.CInstr, 0, len(bc.AppInstrs))}
	for idx := range bc.AppInstrs {
		if p != nil {
			p.Before(e, idx)
		}
		e.App(bc.AppInstrs[idx])
		if p != nil {
			p.After(e, idx)
		}
	}
	return e.Out
}

// plan classifies a new block and returns the tool's plan for it.
func (h *hybridClient) plan(ctx *dbm.BlockContext) InstrPlan {
	rt := h.rt
	var tab *rules.Table
	if ctx.Module != nil {
		tab = rt.tables[ctx.Module.Name]
	}
	if tab != nil {
		if _, hit := tab.BlockRules(ctx.Start); hit {
			// (3b) Address hit: statically seen. Collect instruction-
			// level rules across the WHOLE dynamic block: the block
			// builder stops at the first executed CTI, so one dynamic
			// block may span several static blocks (a branch target
			// mid-way makes the static CFG split where the dynamic
			// trace does not), and a NO_OP on the first static block
			// says nothing about rules attached further along.
			instrRules := map[uint64][]rules.Rule{}
			n := 0
			for _, in := range ctx.AppInstrs {
				if irs := tab.InstrRules(in.Addr); len(irs) > 0 {
					instrRules[in.Addr] = irs
					n += len(irs)
				}
			}
			if n == 0 {
				// (4b) No modification needed anywhere: place as-is.
				rt.Coverage.StaticNoOp++
				return nil
			}
			rt.Coverage.StaticInstrumented++
			return rt.Tool.PlanStatic(ctx, instrRules)
		}
	}
	// (3a) Miss: dynamically generated, dlopened without rules, or
	// statically undiscovered code — the block-local analysis supplies
	// its rules.
	rt.Coverage.Fallback++
	return rt.Tool.PlanStatic(ctx, rt.Tool.BlockRules(ctx))
}
