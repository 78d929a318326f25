package rewrite

import (
	"errors"

	"repro/internal/wire"
)

// Binary serialisation of rewrite plans over the codec JEF modules and rule
// files share (internal/wire): magic, fixed header, counted tables. The
// encoding is deterministic — a plan marshals to the same bytes every time
// — so cached plans are content-addressable and byte-comparable across
// analysis runs.

// PlanMagic identifies a serialised rewrite plan.
var PlanMagic = [4]byte{'J', 'P', 'L', '1'}

// ErrBadPlanMagic is returned when the input is not a rewrite plan.
var ErrBadPlanMagic = errors.New("rewrite: bad magic (not a rewrite plan)")

// ErrMalformedPlan is wrapped by every ReadPlan failure past the magic
// check: truncated tables, unreasonable counts, or trailing garbage. The
// fuzz harness asserts errors.Is(err, ErrMalformedPlan) so hostile plans
// are rejected with a typed error rather than a panic.
var ErrMalformedPlan = errors.New("rewrite: malformed plan")

// Count sanity caps: a hostile header can declare counts far beyond any
// real plan; capping them up front bounds the work and allocation a
// malformed plan can demand.
const (
	maxPlanBlocks  = 1 << 24
	maxPlanEntries = 1 << 22
	maxPlanFrag    = 1 << 16
)

// Encoded sizes: one MetaInstr, and an Entry with empty fragments.
const (
	metaSize  = 4 + 8 + 4 + 8 + 4 + 4 + 2
	entrySize = 8 + 1 + 4 + 4
)

// Marshal serialises the plan. The output is byte-stable: equal plans
// always produce equal bytes.
func (p *Plan) Marshal() []byte {
	size := 64 + len(p.Module) + len(p.Tool) + 8*len(p.BlockAddrs)
	for i := range p.Entries {
		size += entrySize + metaSize*(len(p.Entries[i].Before)+len(p.Entries[i].After))
	}
	w := wire.NewWriter(PlanMagic, size)
	w.Str(p.Module)
	w.Str(p.Tool)
	w.U32(uint32(p.ModuleID))
	w.Bool(p.PIC)
	w.U64(p.AssumedBase)

	w.U32(uint32(len(p.BlockAddrs)))
	for _, a := range p.BlockAddrs {
		w.U64(a)
	}
	w.U32(uint32(len(p.Entries)))
	for i := range p.Entries {
		e := &p.Entries[i]
		w.U64(e.Anchor)
		w.U8(e.AnchorOp)
		for _, frag := range [][]MetaInstr{e.Before, e.After} {
			w.U32(uint32(len(frag)))
			for j := range frag {
				mi := &frag[j]
				w.U8(mi.Op)
				w.U8(mi.Rd)
				w.U8(mi.Rb)
				w.U8(mi.Ri)
				w.U64(uint64(mi.Imm))
				w.U32(uint32(mi.Disp))
				w.U64(mi.Addr)
				w.U32(mi.Size)
				w.U32(uint32(mi.JumpTo))
				w.U8(mi.CC)
				w.U8(mi.Reloc)
			}
		}
	}
	return w
}

// ReadPlan deserialises a plan. Structural invariants beyond size bounds
// (sortedness, jump ranges) are the caller's job via Plan.Validate.
func ReadPlan(data []byte) (*Plan, error) {
	r, ok := wire.NewReader(data, PlanMagic, ErrMalformedPlan)
	if !ok {
		return nil, ErrBadPlanMagic
	}
	readMeta := func(mi *MetaInstr) {
		mi.Op = r.U8()
		mi.Rd = r.U8()
		mi.Rb = r.U8()
		mi.Ri = r.U8()
		mi.Imm = int64(r.U64())
		mi.Disp = int32(r.U32())
		mi.Addr = r.U64()
		mi.Size = r.U32()
		mi.JumpTo = int32(r.U32())
		mi.CC = r.U8()
		mi.Reloc = r.U8()
	}
	p := &Plan{}
	p.Module = r.Str()
	p.Tool = r.Str()
	p.ModuleID = int32(r.U32())
	p.PIC = r.Bool()
	p.AssumedBase = r.U64()
	p.BlockAddrs = wire.Table(r, "block", maxPlanBlocks, 8, func(a *uint64) {
		*a = r.U64()
	})
	p.Entries = wire.Table(r, "entry", maxPlanEntries, entrySize, func(e *Entry) {
		e.Anchor = r.U64()
		e.AnchorOp = r.U8()
		e.Before = wire.Table(r, "fragment", maxPlanFrag, metaSize, readMeta)
		e.After = wire.Table(r, "fragment", maxPlanFrag, metaSize, readMeta)
	})
	if err := r.Done(); err != nil {
		return nil, err
	}
	return p, nil
}
