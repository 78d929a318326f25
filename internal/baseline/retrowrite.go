package baseline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/jasan"
	"repro/internal/obj"
	"repro/internal/rules"
)

// StaticRewriteCosts models a statically rewritten binary: no translation,
// no dispatch — the instrumentation was baked in offline, so only the
// inserted instructions cost anything.
var StaticRewriteCosts = dbm.Costs{}

// ErrNotPIC reports Retrowrite's headline limitation: reassembleable
// disassembly needs relocations, so only position-independent code is
// supported (§2.1).
var ErrNotPIC = errors.New("retrowrite: input is not position-independent code")

// ErrUnsupportedInput reports inputs Retrowrite's symbolization cannot
// handle (C++ exception tables, non-C languages).
var ErrUnsupportedInput = errors.New("retrowrite: unsupported input binary")

// RetrowriteTool models the static-only binary ASan of Dinesh et al.: the
// same inline shadow checks as JASan (with intra-procedural liveness), but
// applied by static rewriting. It therefore has zero run-time translation
// cost — and zero coverage for anything static analysis does not see:
// statically missed blocks, dlopened modules and generated code run
// UNINSTRUMENTED (the coverage gap of §2.1).
type RetrowriteTool struct {
	j *jasan.Tool
	// Report aliases the underlying sanitizer report, owned by retrowrite.
	Report *diag.Report
}

// NewRetrowrite returns the static rewriter with Retrowrite's optimisation
// profile (register/flag liveness, no SCEV hoisting).
func NewRetrowrite() *RetrowriteTool {
	j := jasan.New(jasan.Config{UseLiveness: true})
	j.Report.Tool = "retrowrite"
	return &RetrowriteTool{j: j, Report: j.Report}
}

// CheckInput validates that Retrowrite can process the module at all.
func (t *RetrowriteTool) CheckInput(mod *obj.Module) error {
	if !mod.PIC {
		return fmt.Errorf("%w: %s", ErrNotPIC, mod.Name)
	}
	return nil
}

// Name implements core.Tool.
func (t *RetrowriteTool) Name() string { return "retrowrite-sim" }

// ViolationReport implements diag.Reporter.
func (t *RetrowriteTool) ViolationReport() *diag.Report { return t.Report }

// StaticPass implements core.Tool: Retrowrite refuses non-PIC modules and
// otherwise performs the sanitizer's static analysis.
func (t *RetrowriteTool) StaticPass(sc *core.StaticContext) []rules.Rule {
	if !sc.Module.PIC {
		// Static rewriting cannot proceed; emit nothing, so the whole
		// module runs unprotected. Harnesses should call CheckInput
		// first and report the failure.
		return nil
	}
	return t.j.StaticPass(sc)
}

// PlanStatic implements core.Tool: JASan's static plan.
func (t *RetrowriteTool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) core.InstrPlan {
	return t.j.PlanStatic(bc, instrRules)
}

// PlanDyn implements core.Tool: no plan. A statically rewritten binary has
// no run-time component, so code the rewriter never saw executes
// unmodified — the coverage gap hybrid schemes close.
func (t *RetrowriteTool) PlanDyn(*dbm.BlockContext) core.InstrPlan { return nil }

// RuntimeInit implements core.Tool: install the shared sanitizer runtime
// (Retrowrite links binaries against the ASan runtime library) and zero the
// DBT costs, modelling native execution of the rewritten binary.
func (t *RetrowriteTool) RuntimeInit(rt *core.Runtime) error {
	rt.DBM.Costs = StaticRewriteCosts
	return t.j.RuntimeInit(rt)
}
