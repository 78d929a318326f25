// Package baseline implements the four comparison systems of the paper's
// evaluation: a Valgrind/memcheck-style dynamic-only sanitizer, a
// Retrowrite-style static-only binary rewriter, the static BinCFI scheme
// and the dynamic-only Lockdown scheme. Each exhibits the coverage,
// soundness and cost characteristics the paper measures them by.
package baseline

import (
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/jasan"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/rules"
	"repro/internal/shadow"
	"repro/internal/vm"
)

// ValgrindCosts models Valgrind's much heavier translation engine (its IR
// round-trip costs far more than DynamoRIO's copy-and-annotate).
var ValgrindCosts = dbm.Costs{BlockBuild: 1500, PerInstr: 100, IndirectDispatch: 30}

// valgrindTraps is the Valgrind trap family: the memory check itself
// happens inside the handler — the clean-call model, as opposed to JASan's
// inlined checks. Codes encode the register holding the address and the
// width.
const valgrindTraps shadow.Family = 300

// ValgrindTool is the memcheck-style dynamic-only sanitizer: no static
// analysis, every block goes through the dynamic path, every access is
// checked via a clean call that saves the full register/flag context.
// Reports are deduplicated per heap object (memcheck suppresses duplicate
// errors), which is what makes it report fewer-than-actual violations on
// multi-overflow test cases (Fig. 10). It has no canary handling, so
// heap-to-stack overflows are missed entirely.
type ValgrindTool struct {
	// Report accumulates the addressability reports, and the
	// uninitialized-read and use-after-free/double-free reports of the
	// shared runtimes when validity-bit or temporal tracking is on.
	Report *diag.Report
	// trackDef enables memcheck's validity-bit (definedness) modelling.
	trackDef bool
	// trackTemporal enables generation-tag temporal modelling via JTSan's
	// shared quarantine runtime.
	trackTemporal bool
	// frameSizes maps frame-undef trap sites to frame byte counts (the
	// side table jmsan's shared runtime reads).
	frameSizes map[uint64]uint64
	// seenObjects implements per-object report suppression.
	seenObjects map[uint64]bool
	objects     jasan.HeapObjects
}

// NewValgrind returns a fresh memcheck-style tool checking addressability
// only.
func NewValgrind() *ValgrindTool {
	return &ValgrindTool{Report: &diag.Report{Tool: "valgrind", Unattributed: true}, seenObjects: map[uint64]bool{}}
}

// NewValgrindDef returns the memcheck model with validity-bit tracking
// enabled: every store additionally marks its target bytes defined, every
// load is additionally routed through the precise definedness check, fresh
// heap objects and new stack frames start undefined. The shadow encoding and
// trap handlers are shared with JMSan (internal/jmsan), so the two tools
// agree byte-for-byte on what "undefined" means — the reference oracle for
// the agreement tests. Reporting is eager: every load touching an undefined
// byte reports (no origin-tracking deferral).
func NewValgrindDef() *ValgrindTool {
	t := NewValgrind()
	t.trackDef = true
	t.frameSizes = map[uint64]uint64{}
	return t
}

// NewValgrindTemporal returns the memcheck model with temporal tracking
// enabled: every access additionally routes through JTSan's precise
// freed-bitmap check — still in the clean-call model, one more trap in the
// same spill bracket — and the allocator is wrapped in JTSan's
// quarantine-and-generation runtime (internal/jtsan), so the two tools
// agree byte-for-byte on what "freed" means. Every check pays the full
// context spill that JTSan's inlined fast path avoids, which is what makes
// this the overhead baseline of the `jexp jtsan` study.
func NewValgrindTemporal() *ValgrindTool {
	t := NewValgrind()
	t.trackTemporal = true
	return t
}

// Name implements core.Tool.
func (t *ValgrindTool) Name() string {
	if t.trackDef {
		return "valgrind-def"
	}
	if t.trackTemporal {
		return "valgrind-temporal"
	}
	return "valgrind-sim"
}

// ViolationReport implements diag.Reporter.
func (t *ValgrindTool) ViolationReport() *diag.Report { return t.Report }

// StaticPass implements core.Tool: Valgrind has no static stage.
func (t *ValgrindTool) StaticPass(*core.StaticContext) []rules.Rule { return nil }

// PlanStatic implements core.Tool: every memory access gets a clean call
// into the checker. Valgrind has no rules, so every block arrives here
// through the fallback with none.
func (t *ValgrindTool) PlanStatic(bc *dbm.BlockContext, _ map[uint64][]rules.Rule) core.InstrPlan {
	return &valgrindPlan{t: t, ins: bc.AppInstrs}
}

// BlockRules implements core.Tool: PlanStatic needs no rules.
func (t *ValgrindTool) BlockRules(*dbm.BlockContext) map[uint64][]rules.Rule { return nil }

type valgrindPlan struct {
	t   *ValgrindTool
	ins []isa.Instr
}

func (p *valgrindPlan) Before(e *dbm.Emitter, idx int) {
	if in := &p.ins[idx]; in.IsMemAccess() {
		p.t.emitCleanCheck(e, in)
	}
}

// After marks a new stack frame undefined behind its prologue allocation
// when validity bits are tracked.
func (p *valgrindPlan) After(e *dbm.Emitter, idx int) {
	if !p.t.trackDef {
		return
	}
	if size := jmsan.FrameAllocAt(p.ins, idx); size > 0 {
		addr := p.ins[idx].Addr
		p.t.frameSizes[addr] = size
		jmsan.EmitFrameUndef(e, addr)
	}
}

// emitCleanCheck saves the flags and its scratch register, computes the
// address, and traps into the checker. The trap's fixed machine cost models
// the remainder of the clean-call context switch (memcheck runs its check
// in generated helper code with full state spill).
func (t *ValgrindTool) emitCleanCheck(e *dbm.Emitter, in *isa.Instr) {
	mk := dbm.MkInstr
	scratch, _ := dbm.PickScratch(1, nil, dbm.ExcludeOperands(in))
	s1 := scratch[0]
	e.Meta(mk(isa.OpPushF, nil))
	e.Meta(mk(isa.OpPush, func(ins *isa.Instr) { ins.Rd = s1 }))
	shadow.AddrOf(in)(e, s1)
	e.Meta(mk(isa.OpTrap, func(ins *isa.Instr) {
		ins.Imm = valgrindTraps.Code(s1, in.AccessWidth())
		ins.Addr = in.Addr
	}))
	if t.trackDef {
		// Validity bits, still in the clean-call model: one more trap in the
		// same spill bracket. Stores define their bytes, loads go through
		// the precise per-byte check (the handler reports undefined reads).
		code := jmsan.DefLoadTraps.Code(s1, in.AccessWidth())
		if in.IsStore() {
			code = jmsan.DefStoreTraps.Code(s1, in.AccessWidth())
		}
		e.Meta(mk(isa.OpTrap, func(ins *isa.Instr) {
			ins.Imm = code
			ins.Addr = in.Addr
		}))
	}
	if t.trackTemporal {
		// Generation tags, still in the clean-call model: every access goes
		// through JTSan's precise freed-bitmap check (the handler reports
		// dangling accesses), with no inline fast path.
		code := jtsan.GenCheckTraps.Code(s1, in.AccessWidth())
		e.Meta(mk(isa.OpTrap, func(ins *isa.Instr) {
			ins.Imm = code
			ins.Addr = in.Addr
		}))
	}
	e.Meta(mk(isa.OpPop, func(ins *isa.Instr) { ins.Rd = s1 }))
	e.Meta(mk(isa.OpPopF, nil))
}

// RuntimeInit implements core.Tool: interpose the redzone allocator (shared
// with the JASan runtime — memcheck likewise owns malloc) and register the
// checker traps.
func (t *ValgrindTool) RuntimeInit(rt *core.Runtime) error {
	t.objects = jasan.InstallRuntimeOn(rt.M, &diag.Report{}) // discard inline reports
	if t.trackDef {
		// Shares JMSan's definedness runtime: the trap families and the
		// allocator wrapper marking fresh objects undefined (chained over
		// the redzone allocator installed just above).
		jmsan.InstallRuntimeOn(rt.M, t.Report, t.frameSizes)
	}
	if t.trackTemporal {
		// Shares JTSan's temporal runtime: the generation-check trap family
		// and the quarantine allocator wrapper (chained over the redzone
		// allocator installed just above).
		jtsan.InstallRuntimeOn(rt.M, t.Report)
	}
	rt.DBM.Costs = ValgrindCosts
	valgrindTraps.Install(rt.M, func(m *vm.Machine, addr uint64, width int) error {
		t.check(m, addr, width)
		return nil
	})
	return nil
}

// check performs the memcheck-style validity test in the handler: the
// shadow byte (maintained by the shared allocator runtime) decides.
func (t *ValgrindTool) check(m *vm.Machine, addr uint64, width int) {
	sb, _ := m.Mem.ReadB(isa.ShadowAddr(addr))
	bad := false
	switch {
	case sb == 0:
	case sb >= 1 && sb <= 7:
		bad = addr%8 >= uint64(sb) || width == 8
	case sb == jasan.ShadowCanary:
		// Memcheck has no canary concept: the stack is fully
		// addressable to it, so this is NOT an error for Valgrind —
		// heap-to-stack overflows go unreported (Fig. 10 FNs).
		return
	default:
		bad = true
	}
	if !bad {
		return
	}
	obj, _ := t.objects.ObjectFor(addr)
	if obj != 0 {
		// Memcheck-style duplicate suppression: one report per object.
		if t.seenObjects[obj] {
			return
		}
		t.seenObjects[obj] = true
	}
	_ = t.Report.Add(diag.Violation{ // never halts: memcheck recovers
		Kind: kindOf(sb), PC: m.TrapPC, Addr: addr, Width: width,
		Shadow: sb, Object: obj,
	})
}

func kindOf(sb byte) string {
	switch sb {
	case jasan.ShadowHeapRedzone:
		return "invalid-access-redzone"
	case jasan.ShadowFreed:
		return "use-after-free"
	}
	return "invalid-access"
}
