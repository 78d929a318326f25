package core

import (
	"strings"

	"repro/internal/dbm"
	"repro/internal/rules"
)

// InstrPlan is one tool's per-block instrumentation plan: hooks invoked
// around every application instruction by the shared emission walk. Each
// hook's output must be self-contained (its internal meta branches resolve
// within the instructions it emits), which is what makes plans from
// different tools composable in a single pass over the block.
type InstrPlan interface {
	// Before emits instrumentation ahead of application instruction idx.
	Before(e *dbm.Emitter, idx int)
	// After emits instrumentation behind application instruction idx.
	After(e *dbm.Emitter, idx int)
}

// PlannedTool is a Tool whose block rewriting decomposes into per-
// instruction hooks. Tools implementing it compose under MultiTool: the
// "comprehensive" configuration runs JASan, JMSan, JTSan and JCFI over one
// shared translation of every block instead of four.
type PlannedTool interface {
	Tool
	// PlanStatic prepares the plan for a statically-seen block (the rule-
	// guided hit path).
	PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) InstrPlan
	// PlanDyn prepares the plan for a block never seen statically
	// (block-local analysis only).
	PlanDyn(bc *dbm.BlockContext) InstrPlan
}

// EmitPlans runs the shared emission walk: for every application
// instruction, each plan's Before hooks, the instruction itself, then each
// plan's After hooks, in plan order.
func EmitPlans(bc *dbm.BlockContext, plans ...InstrPlan) []dbm.CInstr {
	e := &dbm.Emitter{}
	for idx := range bc.AppInstrs {
		for _, p := range plans {
			p.Before(e, idx)
		}
		e.App(bc.AppInstrs[idx])
		for _, p := range plans {
			p.After(e, idx)
		}
	}
	return e.Out
}

// MultiTool composes several planned tools into one Tool — the combined
// sanitizer configurations of the paper's composability story. Static
// passes concatenate (rule IDs are disjoint across tools, and every tool
// ignores rule IDs it does not own), instrumentation interleaves per
// instruction, and runtimes initialise in tool order (so e.g. JMSan's
// allocator interposition nests over JASan's redzone allocator).
type MultiTool struct {
	Tools []PlannedTool
}

// NewMultiTool composes tools in the given order.
func NewMultiTool(tools ...PlannedTool) *MultiTool {
	return &MultiTool{Tools: tools}
}

// Name implements Tool: the sub-tool names joined with "+".
func (m *MultiTool) Name() string {
	names := make([]string, len(m.Tools))
	for i, t := range m.Tools {
		names[i] = t.Name()
	}
	return strings.Join(names, "+")
}

// ConfigKey folds every sub-tool's configuration into one cache key, so the
// content-addressed rule cache never conflates a combined analysis with any
// of its parts (or with a differently-configured combination).
func (m *MultiTool) ConfigKey() string {
	parts := make([]string, len(m.Tools))
	for i, t := range m.Tools {
		if ck, ok := t.(interface{ ConfigKey() string }); ok {
			parts[i] = t.Name() + "{" + ck.ConfigKey() + "}"
		} else {
			parts[i] = t.Name()
		}
	}
	return strings.Join(parts, "+")
}

// Violations sums every sub-tool's violations.
func (m *MultiTool) Violations() int {
	n := 0
	for _, t := range m.Tools {
		n += Violations(t)
	}
	return n
}

// StaticPass implements Tool: the concatenation of every sub-tool's rules.
func (m *MultiTool) StaticPass(sc *StaticContext) []rules.Rule {
	var out []rules.Rule
	for _, t := range m.Tools {
		out = append(out, t.StaticPass(sc)...)
	}
	return out
}

// multiPlan composes several tools' plans: each hook runs every sub-plan in
// tool order. Because every sub-plan's output is self-contained, the
// composition is itself a valid InstrPlan.
type multiPlan struct{ plans []InstrPlan }

func (m multiPlan) Before(e *dbm.Emitter, idx int) {
	for _, p := range m.plans {
		p.Before(e, idx)
	}
}

func (m multiPlan) After(e *dbm.Emitter, idx int) {
	for _, p := range m.plans {
		p.After(e, idx)
	}
}

// PlanStatic implements PlannedTool: the composition of every sub-tool's
// static plan, so MultiTool itself composes (and so the rewrite backend can
// capture one combined plan per anchor).
func (m *MultiTool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) InstrPlan {
	plans := make([]InstrPlan, len(m.Tools))
	for i, t := range m.Tools {
		plans[i] = t.PlanStatic(bc, instrRules)
	}
	return multiPlan{plans}
}

// PlanDyn implements PlannedTool: the composition of every sub-tool's
// dynamic plan.
func (m *MultiTool) PlanDyn(bc *dbm.BlockContext) InstrPlan {
	plans := make([]InstrPlan, len(m.Tools))
	for i, t := range m.Tools {
		plans[i] = t.PlanDyn(bc)
	}
	return multiPlan{plans}
}

// Instrument implements Tool: one walk, every tool's static plan.
func (m *MultiTool) Instrument(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) []dbm.CInstr {
	return EmitPlans(bc, m.PlanStatic(bc, instrRules))
}

// DynFallback implements Tool: one walk, every tool's dynamic plan.
func (m *MultiTool) DynFallback(bc *dbm.BlockContext) []dbm.CInstr {
	return EmitPlans(bc, m.PlanDyn(bc))
}

// RuntimeInit implements Tool: sub-tool runtimes initialise in order.
func (m *MultiTool) RuntimeInit(rt *Runtime) error {
	for _, t := range m.Tools {
		if err := t.RuntimeInit(rt); err != nil {
			return err
		}
	}
	return nil
}
