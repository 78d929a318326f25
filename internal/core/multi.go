package core

import (
	"strings"

	"repro/internal/dbm"
	"repro/internal/rules"
)

// MultiTool composes several tools into one Tool — the combined
// sanitizer configurations of the paper's composability story. Static
// passes concatenate (rule IDs are disjoint across tools, and every tool
// ignores rule IDs it does not own), instrumentation interleaves per
// instruction, and runtimes initialise in tool order (so e.g. JMSan's
// allocator interposition nests over JASan's redzone allocator).
type MultiTool struct {
	Tools []Tool
}

// NewMultiTool composes tools in the given order.
func NewMultiTool(tools ...Tool) *MultiTool {
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
type multiPlan []InstrPlan

func (m multiPlan) Before(e *dbm.Emitter, idx int) {
	for _, p := range m {
		p.Before(e, idx)
	}
}

func (m multiPlan) After(e *dbm.Emitter, idx int) {
	for _, p := range m {
		p.After(e, idx)
	}
}

// compose skips nil sub-plans; with none left the block is placed
// unmodified.
func compose(plans multiPlan) InstrPlan {
	if len(plans) == 0 {
		return nil
	}
	return plans
}

// PlanStatic implements Tool: the composition of every sub-tool's static
// plan, so MultiTool itself composes (and so the rewrite backend can
// capture one combined plan per anchor).
func (m *MultiTool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) InstrPlan {
	plans := make(multiPlan, 0, len(m.Tools))
	for _, t := range m.Tools {
		if p := t.PlanStatic(bc, instrRules); p != nil {
			plans = append(plans, p)
		}
	}
	return compose(plans)
}

// PlanDyn implements Tool: the composition of every sub-tool's dynamic plan.
func (m *MultiTool) PlanDyn(bc *dbm.BlockContext) InstrPlan {
	plans := make(multiPlan, 0, len(m.Tools))
	for _, t := range m.Tools {
		if p := t.PlanDyn(bc); p != nil {
			plans = append(plans, p)
		}
	}
	return compose(plans)
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
