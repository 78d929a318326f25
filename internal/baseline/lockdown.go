package baseline

import (
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/jcfi"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/vm"
)

// LockdownCosts models libdetox, a leaner DBT than DynamoRIO (§6.2.1:
// Lockdown's overhead sits slightly below JCFI's despite similar checks).
var LockdownCosts = dbm.Costs{BlockBuild: 140, PerInstr: 14, IndirectDispatch: 8}

// lockdownHeuristicTrap inspects argument registers at cross-module calls
// for function pointers (Lockdown's callback heuristic).
const lockdownHeuristicTrap = 330

// LockdownConfig selects the strong (default) or weak policy of Fig. 12.
type LockdownConfig struct {
	// Weak permits any exported or symbol-known function of any module as
	// a call target (lower AIR, no callback false positives).
	Weak            bool
	HaltOnViolation bool
}

// LockdownTool models the dynamic-only CFI of Payer et al.:
//
//   - no static stage: everything happens at load and translation time;
//   - strong policy: inter-module calls must target a symbol imported by
//     the source and exported by the destination; callbacks are whitelisted
//     by a run-time heuristic that watches argument REGISTERS at
//     cross-module call boundaries — function pointers passed through
//     memory (stack-spilled, config tables) are missed, producing the
//     false positives of §6.2.2;
//   - indirect jumps may target any byte of the surrounding function
//     (nearest-symbol policy — footnote 15);
//   - precise shadow stack for returns (same as JCFI).
type LockdownTool struct {
	cfg    LockdownConfig
	Report *diag.Report

	st    *jcfi.RTState
	rt    *core.Runtime
	sites map[uint64]float64
	space float64
	// funcAddrs mirrors every module's function symbol addresses for the
	// register heuristic and nearest-symbol jump ranges.
	funcAddrs map[uint64]bool
	modsSetup map[string]bool
}

// NewLockdown returns the dynamic-only CFI baseline.
func NewLockdown(cfg LockdownConfig) *LockdownTool {
	return &LockdownTool{
		cfg: cfg, Report: &diag.Report{Tool: "lockdown", Unattributed: true},
		sites: map[uint64]float64{}, funcAddrs: map[uint64]bool{},
		modsSetup: map[string]bool{},
	}
}

// Name implements core.Tool.
func (t *LockdownTool) Name() string {
	if t.cfg.Weak {
		return "lockdown-sim-weak"
	}
	return "lockdown-sim"
}

// ViolationReport implements diag.Reporter.
func (t *LockdownTool) ViolationReport() *diag.Report { return t.Report }

// StaticPass implements core.Tool: Lockdown has no static stage.
func (t *LockdownTool) StaticPass(*core.StaticContext) []rules.Rule { return nil }

// PlanStatic implements core.Tool: Lockdown's per-block translation-time
// instrumentation. Lockdown has no rules, so every block arrives here
// through the fallback with none.
func (t *LockdownTool) PlanStatic(bc *dbm.BlockContext, _ map[uint64][]rules.Rule) core.InstrPlan {
	return &lockdownPlan{t: t, bc: bc}
}

// BlockRules implements core.Tool: PlanStatic needs no rules.
func (t *LockdownTool) BlockRules(*dbm.BlockContext) map[uint64][]rules.Rule { return nil }

type lockdownPlan struct {
	t  *LockdownTool
	bc *dbm.BlockContext
}

// Before checks the block's terminating control transfer.
func (p *lockdownPlan) Before(e *dbm.Emitter, idx int) {
	t, bc, ins := p.t, p.bc, p.bc.AppInstrs
	if idx != len(ins)-1 {
		return
	}
	id := 0
	if bc.Module != nil {
		id = bc.Module.ID
	}
	in := &ins[idx]
	switch in.Op {
	case isa.OpCall:
		// Cross-module direct call boundary: run the callback
		// heuristic before the transfer.
		if bc.Module != nil && t.isCrossModule(bc.Module, in.Target()) {
			e.Meta(dbm.MkInstr(isa.OpTrap, func(i *isa.Instr) {
				i.Imm = lockdownHeuristicTrap
				i.Addr = in.Addr
			}))
		}
		jcfi.EmitShadowPush(e, in, true, nil)
	case isa.OpCallI:
		jcfi.EmitCallCheck(e, in, jcfi.CallTableBase(id), true, nil)
		t.recordSite(in.Addr, float64(len(t.st.Ensure(id).Call)))
		jcfi.EmitShadowPush(e, in, true, nil)
	case isa.OpJmpI:
		if idx > 0 && ins[idx-1].Op == isa.OpLdPC && ins[idx-1].Rd == in.Rd {
			// PLT dispatch: treated as an inter-module call.
			jcfi.EmitCallCheck(e, in, jcfi.CallTableBase(id), true, nil)
			t.recordSite(in.Addr, float64(len(t.st.Ensure(id).Call)))
			break
		}
		var lo, hi uint64
		if bc.Module != nil {
			lo, hi = jcfi.NearestFuncRange(bc.Module, in.Addr)
		}
		jcfi.EmitJumpCheck(e, in, lo, hi, jcfi.JumpTableBase(id), true, nil)
		t.recordSite(in.Addr, float64(hi-lo)+float64(len(t.st.Ensure(id).Jump)))
	case isa.OpRet:
		if idx > 0 && ins[idx-1].Op == isa.OpPush {
			// Lockdown's secure loader handles lazy resolution
			// itself; the equivalent here is a forward check.
			jcfi.EmitResolverRetCheck(e, in, jcfi.CallTableBase(id), true, nil)
			t.recordSite(in.Addr, float64(len(t.st.Ensure(id).Call)))
		} else {
			jcfi.EmitRetCheck(e, in, true, nil)
			t.recordSite(in.Addr, 1)
		}
	}
}

func (*lockdownPlan) After(*dbm.Emitter, int) {}

// isCrossModule reports whether a direct call target lies outside the
// caller's module (including calls into the caller's own PLT, which
// dispatch across modules).
func (t *LockdownTool) isCrossModule(lm *loader.LoadedModule, target uint64) bool {
	if lm.ImportByPLT(lm.LinkAddr(target)) != nil {
		return true
	}
	other := t.rt.Proc.ModuleAt(target)
	return other != nil && other != lm
}

func (t *LockdownTool) recordSite(addr uint64, targets float64) {
	if _, ok := t.sites[addr]; !ok {
		t.sites[addr] = targets
	}
}

// RuntimeInit implements core.Tool.
func (t *LockdownTool) RuntimeInit(rt *core.Runtime) error {
	t.rt = rt
	t.Report.HaltOnError = t.cfg.HaltOnViolation
	t.st = jcfi.NewRTState(rt.M)
	if err := jcfi.InstallShadowStack(rt.M); err != nil {
		return err
	}
	t.st.InstallViolationTraps(t.Report)
	rt.DBM.Costs = LockdownCosts

	// Callback heuristic: inspect r1..r5 at cross-module call boundaries
	// for values that are function entries in ANY loaded module; found
	// ones become permitted call targets everywhere.
	rt.M.HandleTrap(lockdownHeuristicTrap, func(m *vm.Machine) error {
		for _, reg := range []isa.Register{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5} {
			v := m.Regs[reg]
			if t.funcAddrs[v] {
				for _, lm := range t.rt.Proc.Modules {
					if err := t.st.AddCallTarget(lm.ID, v); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})

	for _, lm := range rt.Proc.Modules {
		if err := t.setupModule(lm); err != nil {
			return err
		}
	}
	rt.Proc.OnModuleLoad = append(rt.Proc.OnModuleLoad, func(lm *loader.LoadedModule) {
		_ = t.setupModule(lm)
	})
	return nil
}

// setupModule builds Lockdown's load-time target sets.
func (t *LockdownTool) setupModule(lm *loader.LoadedModule) error {
	if t.modsSetup[lm.Name] {
		return nil
	}
	t.modsSetup[lm.Name] = true
	id := lm.ID
	t.space += float64(execBytes(lm.Module))

	var ownFuncs []uint64
	for _, s := range lm.FuncSymbols() {
		rtAddr := lm.RuntimeAddr(s.Addr)
		ownFuncs = append(ownFuncs, rtAddr)
		t.funcAddrs[rtAddr] = true
	}
	// Intra-module: own function symbols are valid call and jump targets.
	for _, a := range ownFuncs {
		if err := t.st.AddCallTarget(id, a); err != nil {
			return err
		}
		if err := t.st.AddJumpTarget(id, a); err != nil {
			return err
		}
	}
	// PLT lazy stubs.
	for i := range lm.Imports {
		stub := lm.RuntimeAddr(lm.Imports[i].PLT + 8)
		if err := t.st.AddCallTarget(id, stub); err != nil {
			return err
		}
	}
	// Inter-module policy: strong admits only imported∩exported symbols;
	// weak admits every export and every known function of every module.
	for _, other := range t.rt.Proc.Modules {
		if other.ID == id {
			continue
		}
		if t.cfg.Weak {
			for _, s := range other.FuncSymbols() {
				if err := t.st.AddCallTarget(id, other.RuntimeAddr(s.Addr)); err != nil {
					return err
				}
			}
			for _, s := range lm.FuncSymbols() {
				if err := t.st.AddCallTarget(other.ID, lm.RuntimeAddr(s.Addr)); err != nil {
					return err
				}
			}
			continue
		}
		// Strong: targets this module imports that the other exports.
		for i := range lm.Imports {
			if sym := other.FindSymbol(lm.Imports[i].Name); sym != nil && sym.Exported {
				if err := t.st.AddCallTarget(id, other.RuntimeAddr(sym.Addr)); err != nil {
					return err
				}
			}
		}
		// And symmetrically for the other module's imports from us.
		for i := range other.Imports {
			if sym := lm.FindSymbol(other.Imports[i].Name); sym != nil && sym.Exported {
				if err := t.st.AddCallTarget(other.ID, lm.RuntimeAddr(sym.Addr)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// DynamicAIR returns Lockdown's DAIR over instrumented sites.
func (t *LockdownTool) DynamicAIR() float64 {
	sizes := make([]float64, 0, len(t.sites))
	for _, n := range t.sites {
		sizes = append(sizes, n)
	}
	return metrics.AIR(sizes, t.space)
}
