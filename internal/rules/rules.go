// Package rules implements Janitizer's rewrite rules (Fig. 3): the
// interface between the static analyzer and the dynamic modifier. Each rule
// names a handler routine (RuleID), the basic block and instruction it
// applies to (link-time addresses) and up to four data words. Rules are
// recorded in a separate file per binary module and loaded at run time with
// the module; a shared library analyzed once serves every binary that links
// it (§3.3.1).
package rules

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// ID selects the dynamic modifier's handler routine for a rule.
type ID uint16

// Rule IDs. The numeric values are part of the rule-file encoding.
const (
	// NoOp marks a statically inspected block that needs no modification,
	// letting the dynamic modifier distinguish "statically proven fine"
	// from "never statically seen" (§3.3.4).
	NoOp ID = 1

	// MemAccess: instrument this memory access with a shadow check.
	// Data1 packs the liveness summary (see PackLiveness), Data2 the
	// access class (analysis.AccessClass) for SCEV-driven optimisation.
	MemAccess ID = 2
	// MemAccessSafe: the access is statically proven safe; the handler
	// skips it (coverage is still recorded). Data1 packs liveness as
	// MemAccess; Data2 records the elision provenance (Safe* constants
	// below); Data3 carries provenance detail (the dominating anchor's
	// instruction address for SafeDedup).
	MemAccessSafe ID = 3
	// PoisonCanary: poison the canary slot's shadow after this
	// instruction's predecessor stores the canary (Fig. 6). Data1 packs
	// the slot base register, Data2 the displacement.
	PoisonCanary ID = 4
	// UnpoisonCanary: unpoison the canary slot before the epilogue check
	// reloads it. Data as PoisonCanary.
	UnpoisonCanary ID = 5

	// CFICall: verify the target of this indirect call against the
	// forward-edge table. Data1 packs liveness.
	CFICall ID = 6
	// CFIJump: verify the target of this indirect jump. Data1 packs
	// liveness; Data2 holds the containing function entry (intra-function
	// policy), Data3 the function end.
	CFIJump ID = 7
	// CFIRet: verify this return against the shadow stack. Data1 packs
	// liveness.
	CFIRet ID = 8
	// ShadowPush: push the return address of this (direct or indirect)
	// call on the shadow stack. Data1 packs liveness.
	ShadowPush ID = 9
	// CFIResolverRet: the ld.so lazy-resolver `push r0; ret` special case
	// — attach a forward (indirect-call) check instead of a return check
	// (§4.2.3).
	CFIResolverRet ID = 10

	// HoistedCheck: SCEV-derived range check hoisted to a loop preheader
	// (§3.3.2): the in-loop accesses it covers are marked MemAccessSafe.
	// Data1 packs liveness at the hoist point, Data2 packs the base
	// register (low byte) and access width (next byte), Data3/Data4 hold
	// the first and last displacement of the covered range (as signed
	// 32-bit values).
	HoistedCheck ID = 11

	// CFITarget is not an instrumentation rule: it carries one valid
	// indirect-CTI target (Instr = the target's link-time address) from
	// the static analyzer to the dynamic modifier, which populates its
	// run-time target hash tables from these — with PIC adjustment by the
	// shared rule-loading path (§4.2.2). Data1 is a TargetKind bit set:
	// 1 = indirect-call target, 2 = indirect-jump target.
	CFITarget ID = 12

	// CFIJumpNarrow: verify this indirect jump against a small per-site
	// inline target set instead of the module-global hash table. Data1
	// packs liveness; Data2 is 0 for a singleton target or 1 for a
	// jump-table dispatch; Data3 holds the link-time target (singleton) or
	// the link-time table address (table); Data4 packs the table index
	// range as lo<<32 | count. Always derived from a replayable vsa jump
	// claim.
	CFIJumpNarrow ID = 13

	// MemDefStore: this store defines memory — clear the definedness
	// shadow's undefined bits for the written bytes (JMSan, §4 tool 3).
	// Data1 packs liveness as MemAccess; Data2 the access class.
	MemDefStore ID = 14
	// MemDefLoad: this load's value reaches a definedness sink (branch
	// condition, address computation or service-call argument) — check the
	// definedness shadow of the loaded bytes and report when any is
	// undefined. Data1 packs liveness; Data2 the access class.
	MemDefLoad ID = 15
	// FrameUndef: this instruction is a prologue `sub sp, N` — mark the
	// fresh frame bytes below the canary slot undefined at entry. Data1
	// packs liveness after the SP adjustment; Data2 holds the frame size N.
	FrameUndef ID = 16

	// MemGenCheck: instrument this memory access with a heap-generation
	// check — trap when any accessed byte belongs to a freed (quarantined)
	// chunk (JTSan use-after-free detection). Data1 packs liveness as
	// MemAccess; Data2 the access class.
	MemGenCheck ID = 17

	// QuarTick: this instruction is an allocator service trap (malloc or
	// free) — the anchor for JTSan's quarantine cost tick. Without it a
	// block whose only interesting instruction is the trap carries no rules
	// at all and the core marks it NO_OP, so the tick would never be
	// planted. Carries no data words.
	QuarTick ID = 18

	// CustomBase is the first rule ID reserved for out-of-tree tools:
	// handler interpretation is tool-private, so custom techniques can
	// define their own IDs at CustomBase and above without colliding with
	// the built-in handlers.
	CustomBase ID = 0x100
)

// MemAccessSafe provenance values (Data2): why the static pass proved the
// access safe. SafeFrame and above are VSA-backed elisions carrying a
// replayable vsa.Claim; SafeCanary/SafeHoisted are the pre-VSA exemptions.
const (
	// SafeCanary: the access is part of the recognised canary idiom
	// (store or epilogue reload) and is handled by the canary rules.
	SafeCanary uint64 = 1
	// SafeHoisted: covered by an SCEV range check hoisted to the loop
	// preheader (HoistedCheck rule).
	SafeHoisted uint64 = 2
	// SafeFrame: proven in-bounds of the function's own frame, away from
	// canary slots (vsa frame claim).
	SafeFrame uint64 = 3
	// SafeGlobal: proven in-bounds of one statically sized module section
	// (vsa global claim).
	SafeGlobal uint64 = 4
	// SafeDedup: re-checks an address already checked by a dominating
	// access in the same block (vsa dedup claim); Data3 holds the anchor's
	// instruction address.
	SafeDedup uint64 = 5
	// SafeDefInit: a JMSan load proven definitely-initialized — a store to
	// the same proven address dominates it on the straight-line path (vsa
	// def-init claim); Data3 holds the dominating store's instruction
	// address.
	SafeDefInit uint64 = 6
	// SafeNoSink: a JMSan load whose value the definedness taint lattice
	// shows reaching no sink in its block or live-out set — using an
	// undefined value here cannot influence control flow, addresses or
	// service calls. Not VSA-backed (no replayable claim), like SafeCanary.
	SafeNoSink uint64 = 7
	// SafeNoEscape: a JTSan access whose pointer's value set provably
	// cannot include a freed heap chunk between any free and the access
	// (vsa no-escape claim): the address is in-frame, in a statically sized
	// module section, or re-checks a generation-checked dominating access
	// in the same block; Data3 holds the anchor's instruction address for
	// the dedup form (0 otherwise).
	SafeNoEscape uint64 = 8
)

// CFITarget kind bits (Data1 of CFITarget rules).
const (
	TargetCall uint64 = 1 << iota
	TargetJump
)

var idNames = map[ID]string{
	NoOp:           "NO_OP",
	MemAccess:      "MEM_ACCESS",
	MemAccessSafe:  "MEM_ACCESS_SAFE",
	PoisonCanary:   "POISON_CANARY",
	UnpoisonCanary: "UNPOISON_CANARY",
	CFICall:        "CFI_CALL",
	CFIJump:        "CFI_JUMP",
	CFIRet:         "CFI_RET",
	ShadowPush:     "SHADOW_PUSH",
	CFIResolverRet: "CFI_RESOLVER_RET",
	HoistedCheck:   "HOISTED_CHECK",
	CFITarget:      "CFI_TARGET",
	CFIJumpNarrow:  "CFI_JUMP_NARROW",
	MemDefStore:    "MEM_DEF_STORE",
	MemDefLoad:     "MEM_DEF_LOAD",
	FrameUndef:     "FRAME_UNDEF",
	MemGenCheck:    "MEM_GEN_CHECK",
	QuarTick:       "QUAR_TICK",
}

func (id ID) String() string {
	if s, ok := idNames[id]; ok {
		return s
	}
	return fmt.Sprintf("RULE(%d)", uint16(id))
}

// Rule is one rewrite rule (Fig. 3): handler ID, basic-block address,
// instruction address and four optional data words. Addresses are link-time;
// the dynamic modifier adjusts them by the module load base for PIC code
// when populating its hash tables (Fig. 5a).
type Rule struct {
	ID     ID
	BBAddr uint64
	Instr  uint64
	Data   [4]uint64
}

func (r Rule) String() string {
	return fmt.Sprintf("%s bb=%#x instr=%#x data=[%#x %#x %#x %#x]",
		r.ID, r.BBAddr, r.Instr, r.Data[0], r.Data[1], r.Data[2], r.Data[3])
}

// File is the per-module rule file: the module it was generated for plus
// its rules.
type File struct {
	Module string
	Rules  []Rule
}

// fileMagic identifies serialised rule files.
var fileMagic = [4]byte{'J', 'R', 'W', '1'}

// ErrBadRuleFile reports a malformed rule file: bad magic, truncation, a
// rule count the data cannot hold, or bytes past the last rule.
var ErrBadRuleFile = errors.New("rules: bad rule file")

// The encoded size of one Rule, and a cap on a file's declared rule count.
const (
	ruleSize = 2 + 8 + 8 + 4*8
	maxRules = 1 << 24
)

// Marshal serialises the rule file.
func (f *File) Marshal() []byte {
	w := wire.NewWriter(fileMagic, 12+len(f.Module)+ruleSize*len(f.Rules))
	w.Str(f.Module)
	w.U32(uint32(len(f.Rules)))
	for _, r := range f.Rules {
		w.U16(uint16(r.ID))
		w.U64(r.BBAddr)
		w.U64(r.Instr)
		for _, d := range r.Data {
			w.U64(d)
		}
	}
	return w
}

// Unmarshal parses a serialised rule file.
func Unmarshal(data []byte) (*File, error) {
	r, ok := wire.NewReader(data, fileMagic, ErrBadRuleFile)
	if !ok {
		return nil, ErrBadRuleFile
	}
	f := &File{Module: r.Str()}
	f.Rules = wire.Table(r, "rule", maxRules, ruleSize, func(rule *Rule) {
		rule.ID = ID(r.U16())
		rule.BBAddr = r.U64()
		rule.Instr = r.U64()
		for j := range rule.Data {
			rule.Data[j] = r.U64()
		}
	})
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Table is one module's rewrite-rule hash table in the dynamic modifier
// (Fig. 5): rules keyed by *run-time* basic-block address. Per-module tables
// let modules load and unload without scanning for stale hints (§3.4.2).
type Table struct {
	// ModuleName identifies the module the table belongs to.
	ModuleName string
	// Base is the load-base adjustment that was applied (0 for non-PIC).
	Base    uint64
	byBlock map[uint64][]Rule
	byInstr map[uint64][]Rule
}

// NewTable builds a run-time table from a rule file, adjusting link-time
// addresses by base (pass 0 for non-PIC modules) — Fig. 5a step 4.
func NewTable(f *File, base uint64) *Table {
	t := &Table{
		ModuleName: f.Module,
		Base:       base,
		byBlock:    make(map[uint64][]Rule, len(f.Rules)),
		byInstr:    make(map[uint64][]Rule, len(f.Rules)),
	}
	for _, r := range f.Rules {
		r.BBAddr += base
		r.Instr += base
		t.byBlock[r.BBAddr] = append(t.byBlock[r.BBAddr], r)
		if r.Instr != 0 {
			t.byInstr[r.Instr] = append(t.byInstr[r.Instr], r)
		}
	}
	return t
}

// BlockRules returns the rules attached to the basic block at run-time
// address bb, and whether the block was statically seen at all (a hash-table
// hit, Fig. 4 step 3b).
func (t *Table) BlockRules(bb uint64) ([]Rule, bool) {
	rs, ok := t.byBlock[bb]
	return rs, ok
}

// InstrRules returns the rules attached to the instruction at run-time
// address addr.
func (t *Table) InstrRules(addr uint64) []Rule { return t.byInstr[addr] }

// Len returns the number of distinct blocks with rules.
func (t *Table) Len() int { return len(t.byBlock) }

// Blocks returns the run-time block addresses present, sorted (testing and
// diagnostics).
func (t *Table) Blocks() []uint64 {
	out := make([]uint64, 0, len(t.byBlock))
	for a := range t.byBlock {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PackLiveness encodes a liveness summary into a rule data word: the low 16
// bits hold the live-register mask, bit 16 the flags-live bit, bits 17+ up
// to three free (dead) register numbers + 1 (0 = none).
func PackLiveness(liveRegs uint16, flagsLive bool, free []uint8) uint64 {
	v := uint64(liveRegs)
	if flagsLive {
		v |= 1 << 16
	}
	for i := 0; i < 3 && i < len(free); i++ {
		v |= uint64(free[i]+1) << (17 + 5*i)
	}
	return v
}

// AllLive is the liveness word of a rule no liveness analysis backs (a
// dynamic fallback block's): every register and the flags live, no free
// register, so instrumentation saves whatever it uses.
const AllLive uint64 = 1<<16 | 0xffff

// UnpackLiveness reverses PackLiveness.
func UnpackLiveness(v uint64) (liveRegs uint16, flagsLive bool, free []uint8) {
	liveRegs = uint16(v)
	flagsLive = v&(1<<16) != 0
	for i := 0; i < 3; i++ {
		f := (v >> (17 + 5*i)) & 0x1f
		if f == 0 {
			break
		}
		free = append(free, uint8(f-1))
	}
	return
}
