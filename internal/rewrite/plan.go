// Package rewrite implements the static ahead-of-time rewriting backend:
// a serialisable rewrite-plan IR, a Zipr-style in-place applier that bakes
// a plan into a JEF module, and static/hybrid execution drivers.
//
// A Plan is the tool-agnostic record of every instrumentation decision a
// Janitizer tool makes for one module: for each anchor instruction, the
// exact meta-code fragments the tool would hand the DBM, captured once. The
// static backend encodes them into a `.jrw` section of a rewritten module
// (Apply) so instrumented code runs natively; the hybrid backend runs the
// same rewritten modules and fails over to the dynamic modifier's own
// rule-table classifier everywhere else.
package rewrite

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// MetaInstr is one captured meta-code instruction: an isa.Instr plus the
// emitter bookkeeping (fragment-relative jump target, cost center, reloc
// tag) that the applier needs to materialise it faithfully.
type MetaInstr struct {
	// Op, Rd, Rb, Ri, Imm, Disp, Addr and Size mirror isa.Instr. Addr is
	// preserved verbatim from emission: tools stamp trap metas with the
	// application anchor address so runtime handlers can attribute the
	// trap (m.TrapPC); everything else leaves it zero.
	Op, Rd, Rb, Ri uint8
	Imm            int64
	Disp           int32
	Addr           uint64
	Size           uint32
	// JumpTo is the fragment-relative branch target: -1 keeps application
	// semantics (only meaningful on CTIs), 0..len(fragment) indexes into
	// the fragment, with len(fragment) meaning "fall through past it".
	JumpTo int32
	// CC is the telemetry cost center the instruction charges.
	CC uint8
	// Reloc tags position-dependent immediates (dbm.RelocKind); the static
	// applier must recompute them against the rewritten layout.
	Reloc uint8
}

// Entry records the instrumentation captured for one anchor instruction:
// the meta-code emitted before and after it. AnchorOp is the opcode the
// anchor decoded to at capture time, letting consumers cross-check that
// the instruction they are instrumenting is the one the plan was built
// against.
type Entry struct {
	Anchor   uint64
	AnchorOp uint8
	Before   []MetaInstr
	After    []MetaInstr
}

// Plan is the serialisable rewrite plan for one (module, tool) pair. Block
// and anchor addresses are runtime addresses under the loader bases the
// plan was captured with (AssumedBase for this module); consumers verify
// the base still holds before trusting them.
type Plan struct {
	// Module is the JEF module name the plan instruments.
	Module string
	// Tool identifies the producing tool configuration (core tool key).
	Tool string
	// ModuleID and AssumedBase pin the loader placement the runtime
	// addresses in this plan were captured under. PIC mirrors the
	// module's PIC flag (AssumedBase is zero for non-PIC modules).
	ModuleID    int32
	PIC         bool
	AssumedBase uint64
	// BlockAddrs is the sorted set of statically-analysed basic-block
	// start addresses — the rule-table hit set. Blocks outside it were
	// never seen statically and must fall back to dynamic analysis.
	BlockAddrs []uint64
	// Entries holds per-anchor instrumentation, sorted by Anchor. Anchors
	// with rules but empty fragments are retained, so the plan lists every
	// instrumentation anchor of the rule tables.
	Entries []Entry

	indexOnce sync.Once
	blockSet  map[uint64]struct{}
	byAnchor  map[uint64]*Entry
}

func (p *Plan) buildIndex() {
	p.indexOnce.Do(func() {
		p.blockSet = make(map[uint64]struct{}, len(p.BlockAddrs))
		for _, a := range p.BlockAddrs {
			p.blockSet[a] = struct{}{}
		}
		p.byAnchor = make(map[uint64]*Entry, len(p.Entries))
		for i := range p.Entries {
			p.byAnchor[p.Entries[i].Anchor] = &p.Entries[i]
		}
	})
}

// HasBlock reports whether addr is a statically-analysed block start.
func (p *Plan) HasBlock(addr uint64) bool {
	p.buildIndex()
	_, ok := p.blockSet[addr]
	return ok
}

// EntryAt returns the instrumentation entry anchored at addr, or nil.
func (p *Plan) EntryAt(addr uint64) *Entry {
	p.buildIndex()
	return p.byAnchor[addr]
}

// Validate checks structural invariants: sorted, duplicate-free addresses
// and fragment-relative jump targets in range. Plans accepted by ReadPlan
// may still fail Validate (the codec only bounds sizes); consumers must
// call it before trusting a plan.
func (p *Plan) Validate() error {
	if p.Module == "" {
		return fmt.Errorf("rewrite: plan has empty module name")
	}
	if !p.PIC && p.AssumedBase != 0 {
		return fmt.Errorf("rewrite: non-PIC plan with nonzero base %#x", p.AssumedBase)
	}
	for i := 1; i < len(p.BlockAddrs); i++ {
		if p.BlockAddrs[i] <= p.BlockAddrs[i-1] {
			return fmt.Errorf("rewrite: block addresses not strictly sorted at %d", i)
		}
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		if i > 0 && e.Anchor <= p.Entries[i-1].Anchor {
			return fmt.Errorf("rewrite: entries not strictly sorted at %d", i)
		}
		if e.Anchor == 0 {
			return fmt.Errorf("rewrite: entry %d has zero anchor", i)
		}
		for _, frag := range [][]MetaInstr{e.Before, e.After} {
			for j := range frag {
				if err := frag[j].validate(len(frag)); err != nil {
					return fmt.Errorf("rewrite: entry %#x meta %d: %w", e.Anchor, j, err)
				}
			}
		}
	}
	return nil
}

func (mi *MetaInstr) validate(fragLen int) error {
	if isa.EncodedSize(isa.Op(mi.Op)) == 0 {
		return fmt.Errorf("invalid opcode %d", mi.Op)
	}
	if mi.JumpTo < -1 || int(mi.JumpTo) > fragLen {
		return fmt.Errorf("jump target %d out of fragment range [0,%d]", mi.JumpTo, fragLen)
	}
	if mi.CC >= uint8(telemetry.NumCostCenters) {
		return fmt.Errorf("invalid cost center %d", mi.CC)
	}
	if mi.Reloc > uint8(dbm.RelocRetAddr) {
		return fmt.Errorf("invalid reloc kind %d", mi.Reloc)
	}
	return nil
}

// Instr reconstructs the isa instruction, preserving the Addr/Size fields
// recorded at emission (trap metas carry the application anchor in Addr).
func (mi *MetaInstr) Instr() isa.Instr {
	return isa.Instr{
		Op:   isa.Op(mi.Op),
		Rd:   isa.Register(mi.Rd),
		Rb:   isa.Register(mi.Rb),
		Ri:   isa.Register(mi.Ri),
		Imm:  mi.Imm,
		Disp: mi.Disp,
		Addr: mi.Addr,
		Size: mi.Size,
	}
}

// metaFromCInstr converts one emitter output slot into the plan IR. The
// emitter must have been fresh for the fragment, so c.JumpTo is already
// fragment-relative.
func metaFromCInstr(c dbm.CInstr, fragLen int) (MetaInstr, error) {
	if !c.Meta {
		return MetaInstr{}, fmt.Errorf("rewrite: captured fragment contains a non-meta instruction %v", c.In.Op)
	}
	if c.JumpTo < -1 || int(c.JumpTo) > fragLen {
		return MetaInstr{}, fmt.Errorf("rewrite: captured jump target %d outside fragment of %d", c.JumpTo, fragLen)
	}
	return MetaInstr{
		Op:     uint8(c.In.Op),
		Rd:     uint8(c.In.Rd),
		Rb:     uint8(c.In.Rb),
		Ri:     uint8(c.In.Ri),
		Imm:    c.In.Imm,
		Disp:   c.In.Disp,
		Addr:   c.In.Addr,
		Size:   c.In.Size,
		JumpTo: c.JumpTo,
		CC:     uint8(c.CC),
		Reloc:  uint8(c.Reloc),
	}, nil
}

// fragFromEmitter converts a fresh emitter's output into a plan fragment.
func fragFromEmitter(out []dbm.CInstr) ([]MetaInstr, error) {
	if len(out) == 0 {
		return nil, nil
	}
	frag := make([]MetaInstr, len(out))
	for i, c := range out {
		mi, err := metaFromCInstr(c, len(out))
		if err != nil {
			return nil, err
		}
		frag[i] = mi
	}
	return frag, nil
}

// sortedUniq sorts addrs and removes duplicates in place.
func sortedUniq(addrs []uint64) []uint64 {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := addrs[:0]
	for i, a := range addrs {
		if i == 0 || a != addrs[i-1] {
			out = append(out, a)
		}
	}
	return out
}
