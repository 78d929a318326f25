package rewrite

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/vm"
)

// CapturePlans runs the tool's static planning hooks over every rule anchor
// of every module in main's dependency closure and records the emitted
// meta-code as one Plan per instrumented module. The tool must be a fresh
// instance dedicated to the capture (its planning hooks may accumulate
// per-run accounting). Every tool plans per instruction, and per-instruction
// hooks are what make a captured fragment valid at any block the anchor
// appears in, which is the property the static applier relies on. An anchor
// the tool leaves unplanned (nil plan) gets no entry.
//
// Capture loads the program into a scratch machine so anchors decode from
// relocated memory exactly as the dynamic modifier would see them, and so
// PIC anchors resolve under the same deterministic loader bases a real run
// uses. Each plan records that assumption (AssumedBase, ModuleID); the
// run-time consumers refuse plans whose assumption no longer holds.
func CapturePlans(main *obj.Module, reg loader.Registry,
	files map[string]*rules.File, tool core.Tool) (map[string]*Plan, error) {

	s, err := core.Load(main, reg, tool, files, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("rewrite: capture load: %w", err)
	}
	m, proc, rt := s.M, s.Proc, s.RT
	if err := tool.RuntimeInit(rt); err != nil {
		return nil, fmt.Errorf("rewrite: capture runtime init: %w", err)
	}

	key := core.ToolKey(tool)
	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %w", err)
	}
	plans := make(map[string]*Plan, len(mods))
	for _, mod := range mods {
		f := files[mod.Name]
		if f == nil {
			continue
		}
		lm := proc.ModuleByName(mod.Name)
		tab := rt.Table(mod.Name)
		if lm == nil || tab == nil {
			return nil, fmt.Errorf("rewrite: module %s has rules but never loaded", mod.Name)
		}
		p, err := captureModule(m, rt, tool, lm, f)
		if err != nil {
			return nil, err
		}
		p.Tool = key
		plans[mod.Name] = p
	}
	return plans, nil
}

func captureModule(m *vm.Machine, rt *core.Runtime, tool core.Tool,
	lm *loader.LoadedModule, f *rules.File) (*Plan, error) {

	base := uint64(0)
	if lm.PIC {
		base = lm.LoadBase
	}
	p := &Plan{
		Module:      lm.Name,
		ModuleID:    int32(lm.ID),
		PIC:         lm.PIC,
		AssumedBase: base,
	}

	var blocks, anchors []uint64
	for i := range f.Rules {
		r := &f.Rules[i]
		blocks = append(blocks, r.BBAddr+base)
		// CFITarget rules are target-set metadata, not instrumentation:
		// their Instr is an indirect-branch *candidate target* (which may
		// not even be an instruction boundary), and every tool's plan
		// ignores them at emission. Anchors are instrumentation sites only.
		if r.Instr != 0 && r.ID != rules.CFITarget {
			anchors = append(anchors, r.Instr+base)
		}
	}
	p.BlockAddrs = sortedUniq(blocks)
	anchors = sortedUniq(anchors)

	tab := rt.Table(lm.Name)
	var buf [isa.MaxInstrLen]byte
	for _, anchor := range anchors {
		irs := tab.InstrRules(anchor)
		if len(irs) == 0 {
			continue
		}
		// Decode the anchor from loaded (relocated) memory — the same
		// bytes the dynamic modifier's block builder decodes.
		if err := m.Mem.ReadBytes(anchor, buf[:]); err != nil {
			return nil, fmt.Errorf("rewrite: %s: read anchor %#x: %w", lm.Name, anchor, err)
		}
		in, err := isa.Decode(buf[:], anchor)
		if err != nil {
			return nil, fmt.Errorf("rewrite: %s: decode anchor %#x: %w", lm.Name, anchor, err)
		}
		bc := &dbm.BlockContext{
			DBM:       rt.DBM,
			Start:     anchor,
			AppInstrs: []isa.Instr{in},
			Module:    lm,
		}
		plan := tool.PlanStatic(bc, map[uint64][]rules.Rule{anchor: irs})
		if plan == nil {
			continue
		}
		var eb, ea dbm.Emitter
		plan.Before(&eb, 0)
		plan.After(&ea, 0)
		before, err := fragFromEmitter(eb.Out)
		if err != nil {
			return nil, fmt.Errorf("rewrite: %s anchor %#x: %w", lm.Name, anchor, err)
		}
		after, err := fragFromEmitter(ea.Out)
		if err != nil {
			return nil, fmt.Errorf("rewrite: %s anchor %#x: %w", lm.Name, anchor, err)
		}
		p.Entries = append(p.Entries, Entry{
			Anchor:   anchor,
			AnchorOp: uint8(in.Op),
			Before:   before,
			After:    after,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: captured plan invalid: %w", err)
	}
	return p, nil
}
