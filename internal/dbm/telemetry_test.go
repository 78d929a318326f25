package dbm

import (
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

func TestStatsCacheHitInvariant(t *testing.T) {
	_, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	s := d.Stats
	if s.BlockExecs != s.CacheHits+s.BlocksBuilt {
		t.Fatalf("BlockExecs (%d) != CacheHits (%d) + BlocksBuilt (%d)",
			s.BlockExecs, s.CacheHits, s.BlocksBuilt)
	}
	// The loop block re-executes ~10000 times: hits must dominate builds.
	if s.CacheHits < 9000 {
		t.Errorf("CacheHits = %d, want >= 9000 for the loop block", s.CacheHits)
	}
	if s.IndirectDispatch != 0 {
		t.Errorf("IndirectDispatch = %d for a program with no indirect CTIs", s.IndirectDispatch)
	}
}

func TestFlushRangeBoundary(t *testing.T) {
	_, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for a := range d.M.Blocks().Blocks() {
		addrs = append(addrs, a)
	}
	if len(addrs) < 2 {
		t.Fatalf("need >= 2 cached blocks, have %d", len(addrs))
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	lo, hi := addrs[0], addrs[1]
	before := d.M.Blocks().Len()

	// [lo, hi) is half-open: the block starting exactly at lo is evicted,
	// the block starting exactly at hi survives.
	d.FlushRange(lo, hi)
	if d.M.Blocks().Get(lo) != nil {
		t.Errorf("block at lo=%#x survived FlushRange(lo, hi)", lo)
	}
	if d.M.Blocks().Get(hi) == nil {
		t.Errorf("block at hi=%#x evicted by FlushRange(lo, hi)", hi)
	}
	if got := d.M.Blocks().Len(); got != before-1 {
		t.Errorf("cache size after flush = %d, want %d", got, before-1)
	}
	if d.Stats.Flushes != 1 || d.Stats.FlushedBlocks != 1 {
		t.Errorf("Flushes=%d FlushedBlocks=%d, want 1/1", d.Stats.Flushes, d.Stats.FlushedBlocks)
	}

	// An empty range touches nothing but still counts as a flush call.
	d.FlushRange(hi, hi)
	if d.M.Blocks().Get(hi) == nil {
		t.Error("empty FlushRange(hi, hi) evicted the block at hi")
	}
	if d.Stats.Flushes != 2 || d.Stats.FlushedBlocks != 1 {
		t.Errorf("after empty range: Flushes=%d FlushedBlocks=%d, want 2/1",
			d.Stats.Flushes, d.Stats.FlushedBlocks)
	}

	d.Flush()
	if d.M.Blocks().Len() != 0 {
		t.Error("Flush did not empty the cache")
	}
	if d.Stats.Flushes != 3 || d.Stats.FlushedBlocks != uint64(before) {
		t.Errorf("after full flush: Flushes=%d FlushedBlocks=%d, want 3/%d",
			d.Stats.Flushes, d.Stats.FlushedBlocks, before)
	}

	// A flushed block must not stay reachable through the links of the
	// blocks that survive: overwrite JIT code that ran, flush only its
	// block, and the rerun — which reaches the JIT block from a surviving,
	// linked call block — must execute the new code.
	m, d, entry := setup(t, jitProgram(jitBlob(7)), NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	jit := m.Regs[isa.R12]
	rerunJIT(t, m, func() error { return d.Run(entry) }, func() { d.FlushRange(jit, jit+1) }, 9)
	if m.ExitStatus != 9 {
		t.Fatalf("rerun after FlushRange exit = %d, want the new code's 9", m.ExitStatus)
	}
	if s := d.Stats; s.FlushedBlocks != 1 || s.BlockExecs != s.CacheHits+s.BlocksBuilt {
		t.Errorf("FlushedBlocks=%d, want 1; BlockExecs (%d) != CacheHits (%d) + BlocksBuilt (%d)",
			s.FlushedBlocks, s.BlockExecs, s.CacheHits, s.BlocksBuilt)
	}
}

// nativeRun executes src directly on a fresh machine (no DBM) and returns it.
func nativeRun(t *testing.T, src string) *vm.Machine {
	t.Helper()
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 5_000_000
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	p := loader.NewProcess(m, loader.Registry{libj.Name: lj})
	main, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := p.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProfileAttributionExact(t *testing.T) {
	mN := nativeRun(t, sumProgram)

	m, d, entry := setup(t, sumProgram, NullClient{})
	prof := &telemetry.Profile{}
	d.Prof = prof
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	// Attribution is exact: every cycle the machine accumulated is charged
	// to exactly one cost center, and the app center matches the native run
	// (the DBM replays the identical application instruction stream).
	if got := prof.TotalCycles(); got != m.Cycles {
		t.Fatalf("profile total cycles = %d, machine cycles = %d", got, m.Cycles)
	}
	if got := prof.TotalInstrs(); got != m.Instrs {
		t.Fatalf("profile total instrs = %d, machine instrs = %d", got, m.Instrs)
	}
	if app := prof.Cycles[telemetry.CCApp]; app != mN.Cycles {
		t.Fatalf("app cycles = %d, native cycles = %d", app, mN.Cycles)
	}
	// The NullClient emits no meta code, so the entire overhead is dispatch
	// (block builds + indirect-CTI lookups).
	b := prof.Breakdown()
	if b.Dispatch == 0 {
		t.Error("dispatch center empty despite block builds")
	}
	if b.ShadowUpdate != 0 || b.Check != 0 || b.Elided != 0 || b.Other != 0 {
		t.Errorf("unexpected non-dispatch overhead under NullClient: %+v", b)
	}
	if b.App+b.Overhead() != m.Cycles {
		t.Fatalf("app (%d) + overhead (%d) != total (%d)", b.App, b.Overhead(), m.Cycles)
	}
}

// ccClient emits a tagged meta check before every store via the Emitter.
type ccClient struct{}

func (ccClient) OnBlock(ctx *BlockContext) []CInstr {
	e := &Emitter{}
	for _, in := range ctx.AppInstrs {
		if in.IsStore() {
			e.SetCC(telemetry.CCMemCheck)
			e.SaveProlog(true, []isa.Register{isa.R8})
			e.Meta(MkInstr(isa.OpCmpRI, func(i *isa.Instr) { i.Rd = isa.R8; i.Imm = 0 }))
			e.RestoreEpilog(true, []isa.Register{isa.R8})
			e.SetCC(telemetry.CCOther)
		}
		e.App(in)
	}
	return e.Out
}

func TestProfileChargesMetaToCostCenter(t *testing.T) {
	src := `
.module prog
.entry _start
.section .text
_start:
    la r6, buf
    mov r7, 0
.loop:
    stxb [r6+r7], r7
    add r7, 1
    cmp r7, 50
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
.section .data
buf:
    .zero 64
`
	mN := nativeRun(t, src)
	m, d, entry := setup(t, src, ccClient{})
	prof := &telemetry.Profile{}
	d.Prof = prof
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d", m.ExitStatus)
	}
	if prof.Cycles[telemetry.CCMemCheck] == 0 {
		t.Fatal("meta check cycles not charged to CCMemCheck")
	}
	if prof.Instrs[telemetry.CCMemCheck] == 0 {
		t.Fatal("meta check instrs not charged to CCMemCheck")
	}
	if got := prof.TotalCycles(); got != m.Cycles {
		t.Fatalf("profile total = %d, machine = %d", got, m.Cycles)
	}
	if app := prof.Cycles[telemetry.CCApp]; app != mN.Cycles {
		t.Fatalf("app cycles = %d, native = %d", app, mN.Cycles)
	}
}

func TestProfileDisabledParity(t *testing.T) {
	// A nil profile must not perturb the cycle model at all.
	mOff, dOff, e1 := setup(t, sumProgram, ccClient{})
	if err := dOff.Run(e1); err != nil {
		t.Fatal(err)
	}
	mOn, dOn, e2 := setup(t, sumProgram, ccClient{})
	dOn.Prof = &telemetry.Profile{}
	if err := dOn.Run(e2); err != nil {
		t.Fatal(err)
	}
	if mOff.Cycles != mOn.Cycles || mOff.Instrs != mOn.Instrs {
		t.Fatalf("profiling changed the model: cycles %d vs %d, instrs %d vs %d",
			mOff.Cycles, mOn.Cycles, mOff.Instrs, mOn.Instrs)
	}
}

func TestEmitterStampsCostCenter(t *testing.T) {
	e := &Emitter{}
	e.Meta(MkInstr(isa.OpNop, nil))
	e.SetCC(telemetry.CCCanary)
	e.Meta(MkInstr(isa.OpNop, nil))
	ph := e.Placeholder()
	e.SetCC(telemetry.CCMemCheck)
	e.PatchJump(ph, isa.OpJe)
	e.MetaJumpTo(isa.OpJmp, 0)
	e.App(MkInstr(isa.OpNop, nil))

	want := []telemetry.CostCenter{
		telemetry.CCOther,    // before any SetCC
		telemetry.CCCanary,   // after SetCC(CCCanary)
		telemetry.CCMemCheck, // placeholder patched after SetCC(CCMemCheck)
		telemetry.CCMemCheck, // MetaJumpTo
		telemetry.CCOther,    // app instruction: CC not meaningful, zero value
	}
	if len(e.Out) != len(want) {
		t.Fatalf("emitted %d instrs, want %d", len(e.Out), len(want))
	}
	for i, w := range want {
		if e.Out[i].CC != w {
			t.Errorf("instr %d: CC = %v, want %v", i, e.Out[i].CC, w)
		}
	}
	if e.Out[4].Meta {
		t.Error("App emitted a meta instruction")
	}
}
