package dbm

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// setup assembles src, loads it (with libj) and returns a DBM with the given
// client.
func setup(t *testing.T, src string, client Client) (*vm.Machine, *DBM, uint64) {
	t.Helper()
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 5_000_000
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	p := loader.NewProcess(m, reg)
	main, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	lm, err := p.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	return m, New(m, p, client), lm.RuntimeAddr(main.Entry)
}

const sumProgram = `
.module prog
.entry _start
.section .text
_start:
    mov r1, 10000
    mov r2, 0
.loop:
    add r2, r1
    sub r1, 1
    cmp r1, 0
    jg .loop
    mov r1, r2
    mov r0, 1
    syscall
`

func TestNullClientPreservesSemantics(t *testing.T) {
	m, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 50005000 {
		t.Fatalf("sum under DBT = %d, want 50005000", m.ExitStatus)
	}
	if d.Stats.BlocksBuilt == 0 || d.Stats.BlockExecs < d.Stats.BlocksBuilt {
		t.Errorf("stats implausible: %+v", d.Stats)
	}
	// The loop body block executed 100 times but was built once.
	if d.Stats.BlocksBuilt > 5 {
		t.Errorf("built %d blocks, expected <= 5", d.Stats.BlocksBuilt)
	}
}

func TestNullClientOverheadIsSmallButNonzero(t *testing.T) {
	// Native run.
	mN := vm.New()
	mN.InstallDefaultServices()
	mN.MaxInstrs = 5_000_000
	lj, _ := libj.Module()
	pN := loader.NewProcess(mN, loader.Registry{libj.Name: lj})
	main, _ := asm.Assemble(sumProgram)
	lmN, err := pN.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := mN.Run(lmN.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}

	m, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	slow := float64(m.Cycles) / float64(mN.Cycles)
	if slow <= 1.0 {
		t.Fatalf("null client slowdown %.3f, want > 1", slow)
	}
	if slow > 1.25 {
		t.Fatalf("null client slowdown %.3f implausibly high for a loopy program", slow)
	}
}

func TestIndirectDispatchCharged(t *testing.T) {
	m, d, entry := setup(t, `
.module prog
.entry _start
.section .text
_start:
    mov r12, 0
    la r13, fn
.loop:
    calli r13          ; indirect call: dispatch cost each time
    add r12, 1
    cmp r12, 10
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
fn:
    ret
`, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	_ = m
	// 10 indirect calls + 10 returns (+ PLT/init noise is absent here).
	if d.Stats.IndirectDispatch < 20 {
		t.Errorf("indirect dispatches = %d, want >= 20", d.Stats.IndirectDispatch)
	}
}

// countingClient inserts a meta add-to-register counter before every store.
type countingClient struct {
	scratchAbuse bool
}

func (c countingClient) OnBlock(ctx *BlockContext) []CInstr {
	var out []CInstr
	for _, in := range ctx.AppInstrs {
		if in.IsStore() {
			// Inline meta-instrumentation: count stores in memory at a
			// fixed slot, preserving registers and flags via stack.
			slot := isa.LayoutCFITableBase // reuse a spare region
			out = append(out,
				Meta(isa.Instr{Op: isa.OpPushF, Size: 1}),
				Meta(isa.Instr{Op: isa.OpPush, Rd: isa.R6, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPush, Rd: isa.R7, Size: 2}),
				Meta(isa.Instr{Op: isa.OpMovRI, Rd: isa.R6, Imm: int64(slot), Size: 10}),
				Meta(isa.Instr{Op: isa.OpLdQ, Rd: isa.R7, Rb: isa.R6, Size: 7}),
				Meta(isa.Instr{Op: isa.OpAddRI, Rd: isa.R7, Imm: 1, Size: 6}),
				Meta(isa.Instr{Op: isa.OpStQ, Rd: isa.R7, Rb: isa.R6, Size: 7}),
				Meta(isa.Instr{Op: isa.OpPop, Rd: isa.R7, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPop, Rd: isa.R6, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPopF, Size: 1}),
			)
		}
		out = append(out, App(in))
	}
	return out
}

func TestInlineInstrumentationCountsStores(t *testing.T) {
	m, d, entry := setup(t, `
.module prog
.entry _start
.section .text
_start:
    la r6, buf
    mov r7, 0
.loop:
    stxb [r6+r7], r7   ; one store per iteration
    add r7, 1
    cmp r7, 50
    jl .loop
    mov r1, 0
    mov r0, 1
    syscall
.section .data
buf:
    .zero 64
`, countingClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	count, err := m.Mem.Read64(isa.LayoutCFITableBase)
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("instrumented store count = %d, want 50", count)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("program semantics broken by instrumentation: exit %d", m.ExitStatus)
	}
	if d.Stats.MetaInstrsInCache == 0 {
		t.Error("no meta instructions recorded")
	}
}

// skipClient inserts a meta conditional branch that skips a poison write —
// exercising intra-block JumpTo control flow.
type skipClient struct{}

func (skipClient) OnBlock(ctx *BlockContext) []CInstr {
	var out []CInstr
	for _, in := range ctx.AppInstrs {
		if in.IsStore() {
			// if r7 == 13 { skip the sentinel write } — meta control flow:
			//   pushf; cmp r7,13; je SKIP; (write sentinel); SKIP: popf
			base := len(out)
			_ = base
			out = append(out,
				Meta(isa.Instr{Op: isa.OpPushF, Size: 1}),
				Meta(isa.Instr{Op: isa.OpPush, Rd: isa.R8, Size: 2}),
				Meta(isa.Instr{Op: isa.OpCmpRI, Rd: isa.R7, Imm: 13, Size: 6}),
			)
			jeIdx := len(out)
			out = append(out, CInstr{}) // placeholder
			out = append(out,
				Meta(isa.Instr{Op: isa.OpMovRI, Rd: isa.R8, Imm: int64(isa.LayoutCFITableBase + 8), Size: 10}),
				Meta(isa.Instr{Op: isa.OpStQ, Rd: isa.R8, Rb: isa.R8, Size: 7}),
			)
			skipTo := len(out)
			out[jeIdx] = MetaJump(isa.Instr{Op: isa.OpJe, Size: 5}, skipTo)
			out = append(out,
				Meta(isa.Instr{Op: isa.OpPop, Rd: isa.R8, Size: 2}),
				Meta(isa.Instr{Op: isa.OpPopF, Size: 1}),
			)
		}
		out = append(out, App(in))
	}
	return out
}

func TestMetaBranchSkipsWithinBlock(t *testing.T) {
	m, d, entry := setup(t, `
.module prog
.entry _start
.section .text
_start:
    la r6, buf
    mov r7, 13
    stxb [r6+r7], r7   ; instrumentation should SKIP its sentinel write
    mov r7, 14
    stxb [r6+r7], r7   ; instrumentation should WRITE its sentinel
    mov r1, 0
    mov r0, 1
    syscall
.section .data
buf:
    .zero 64
`, skipClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	sentinel, _ := m.Mem.Read64(isa.LayoutCFITableBase + 8)
	if sentinel == 0 {
		t.Fatal("sentinel never written — meta branch always taken?")
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d", m.ExitStatus)
	}
}

func TestBlockCacheReuse(t *testing.T) {
	_, d, entry := setup(t, sumProgram, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	loopBlocks := 0
	for _, b := range d.M.Blocks().Blocks() {
		if b.Execs >= 9999 {
			loopBlocks++
		}
	}
	if loopBlocks == 0 {
		t.Error("loop block not reused from cache")
	}
	if d.M.Blocks().Get(entry) == nil {
		t.Error("entry block not in cache")
	}
	d.Flush()
	if d.M.Blocks().Len() != 0 {
		t.Error("flush did not empty cache")
	}
}

func TestDBMWithLibjCalls(t *testing.T) {
	// Full program through PLT, lazy resolution, memcpy under DBT.
	m, d, entry := setup(t, `
.module prog
.entry _start
.needs libj.jef
.import memcpy
.section .text
_start:
    la r1, dst
    la r2, src
    mov r3, 6
    call memcpy
    la r6, dst
    ldb r7, [r6+5]
    mov r1, r7
    mov r0, 1
    syscall
.section .rodata
src:
    .ascii "hello!"
.section .data
dst:
    .zero 16
`, NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != int64('!') {
		t.Fatalf("exit = %d, want '!'", m.ExitStatus)
	}
	// The PLT resolver's push+ret path ran under the DBT.
	if d.Stats.IndirectDispatch == 0 {
		t.Error("no indirect dispatches despite PLT ret-call")
	}
}

// jitBlob encodes the function "mov r0, v; ret".
func jitBlob(v int64) []byte {
	mov := isa.Instr{Op: isa.OpMovRI, Rd: isa.R0, Imm: v}
	ret := isa.Instr{Op: isa.OpRet}
	return isa.Encode(isa.Encode(nil, &mov), &ret)
}

// jitProgram requests an executable region into r12, copies blob there and
// calls it, exiting with its result. Started again with r12 still holding
// the region, it goes straight to the call, so a rerun executes whatever
// code the region holds by then.
func jitProgram(blob []byte) string {
	src := `
.module prog
.entry _start
.section .text
_start:
    cmp r12, 0
    jne .call
    mov r1, 4096
    mov r0, 4
    syscall            ; mmapx
    mov r12, r0
    la r7, blob
    mov r8, 0
.copy:
    ldxb r9, [r7+r8]
    stxb [r12+r8], r9
    add r8, 1
    cmp r8, ` + itoa(len(blob)) + `
    jl .copy
.call:
    calli r12
    mov r1, r0
    mov r0, 1
    syscall
.section .rodata
blob:
`
	for _, b := range blob {
		src += "    .byte " + itoa(int(b)) + "\n"
	}
	return src
}

// rerunJIT overwrites the region of a finished jitProgram run with a
// function returning v, calls invalidate, and runs the program again.
func rerunJIT(t *testing.T, m *vm.Machine, run func() error, invalidate func(), v int64) {
	t.Helper()
	if err := m.Mem.WriteBytes(m.Regs[isa.R12], jitBlob(v)); err != nil {
		t.Fatal(err)
	}
	invalidate()
	m.Halted = false
	if err := run(); err != nil {
		t.Fatal(err)
	}
}

func TestJITCodeUnderDBM(t *testing.T) {
	// Dynamically generated code must be discovered and translated.
	m, d, entry := setup(t, jitProgram(jitBlob(7)), NullClient{})
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 7 {
		t.Fatalf("JIT exit = %d, want 7", m.ExitStatus)
	}
	// The JIT block is cached outside any module.
	found := false
	for addr := range d.M.Blocks().Blocks() {
		if addr >= isa.LayoutJITBase && addr < isa.LayoutStackLimit {
			found = true
		}
	}
	if !found {
		t.Error("JIT block not found in code cache")
	}

	// Overwrite JIT code that already ran. The modifier does not watch code
	// writes, so its translation keeps running until a flush; after one,
	// neither the cache nor a successor link may reach the old code.
	run := func() error { return d.Run(entry) }
	rerunJIT(t, m, run, func() {}, 9)
	if m.ExitStatus != 7 {
		t.Fatalf("unflushed rerun exit = %d, want the cached translation's 7", m.ExitStatus)
	}
	rerunJIT(t, m, run, d.Flush, 9)
	if m.ExitStatus != 9 {
		t.Fatalf("rerun after Flush exit = %d, want the new code's 9", m.ExitStatus)
	}
	if s := d.Stats; s.BlockExecs != s.CacheHits+s.BlocksBuilt {
		t.Errorf("BlockExecs (%d) != CacheHits (%d) + BlocksBuilt (%d)",
			s.BlockExecs, s.CacheHits, s.BlocksBuilt)
	}

	// Natively, flushing the machine's block cache is the flush.
	mN, _, entryN := setup(t, jitProgram(jitBlob(7)), NullClient{})
	runN := func() error { return mN.Run(entryN) }
	if err := runN(); err != nil {
		t.Fatal(err)
	}
	rerunJIT(t, mN, runN, func() { mN.Blocks().Flush() }, 9)
	if mN.ExitStatus != 9 {
		t.Fatalf("native rerun after a block-cache flush exit = %d, want 9", mN.ExitStatus)
	}
}

// TestDlopenKeepsTranslations runs a program that dlopens a plugin mid-run
// and calls into it: loading the plugin must evict no translated block.
func TestDlopenKeepsTranslations(t *testing.T) {
	plug, err := asm.Assemble(`
.module plug.jef
.type shared
.pic
.global f
.section .text
f:
    mov r0, 42
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	main, err := asm.Assemble(`
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r1, pn
    mov r2, 8
    trap 3              ; dlopen
    mov r1, r0
    la r2, fn
    mov r3, 1
    trap 4              ; dlsym
    calli r0
    mov r1, r0
    mov r0, 1
    syscall
.section .rodata
pn:
    .ascii "plug.jef"
fn:
    .ascii "f"
`)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	p := loader.NewProcess(m, loader.Registry{libj.Name: lj, "plug.jef": plug})
	lm, err := p.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	d := New(m, p, NullClient{})
	entry := lm.RuntimeAddr(main.Entry)
	if err := d.Run(entry); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 42 || p.ModuleByName("plug.jef") == nil {
		t.Fatalf("exit = %d, plugin loaded %v; want 42 from the dlopened f",
			m.ExitStatus, p.ModuleByName("plug.jef") != nil)
	}
	if s := d.Stats; s.FlushedBlocks != 0 || uint64(m.Blocks().Len()) != s.BlocksBuilt {
		t.Errorf("FlushedBlocks = %d, %d of %d translations cached; want 0 evicted",
			s.FlushedBlocks, m.Blocks().Len(), s.BlocksBuilt)
	}
	if b := m.Blocks().Get(entry); b == nil || b.Mod == nil {
		t.Error("entry block's translation not cached after the dlopen")
	}
}

// loopClient prefixes every block with a meta countdown loop:
// mov r13, n; top: sub r13, 1; jne top.
type loopClient struct{ n int64 }

func (c loopClient) OnBlock(ctx *BlockContext) []CInstr {
	e := &Emitter{}
	e.Meta(MkInstr(isa.OpMovRI, func(in *isa.Instr) { in.Rd = isa.R13; in.Imm = c.n }))
	top := e.JumpHere()
	e.Meta(MkInstr(isa.OpSubRI, func(in *isa.Instr) { in.Rd = isa.R13; in.Imm = 1 }))
	e.MetaJumpTo(isa.OpJne, top)
	for _, in := range ctx.AppInstrs {
		e.App(in)
	}
	return e.Out
}

// TestInstrBudgetInMetaLoop is the machine's exact budget accounting under
// the DBM, with the budget running out inside a meta-branch loop.
func TestInstrBudgetInMetaLoop(t *testing.T) {
	m, d, entry := setup(t, sumProgram, loopClient{n: 1000})
	m.MaxInstrs = 100
	prof := &telemetry.Profile{}
	d.Prof = prof
	err := d.Run(entry)
	var f *vm.Fault
	if !vm.IsBudget(err) || !errors.As(err, &f) {
		t.Fatalf("err = %v, want budget fault", err)
	}
	// One mov, then (sub, jne) pairs: instruction 101 is the 50th jne, a
	// meta instruction with no application address.
	app := uint64(d.M.Blocks().Get(entry).AppLen)
	want := d.Costs.BlockBuild + d.Costs.PerInstr*app +
		vm.Costs.ALU + 50*(vm.Costs.ALU+vm.Costs.Branch)
	if m.Instrs != m.MaxInstrs+1 || f.PC != 0 || m.Cycles != want {
		t.Fatalf("at budget fault: Instrs=%d PC=%#x Cycles=%d, want %d 0 %d",
			m.Instrs, f.PC, m.Cycles, m.MaxInstrs+1, want)
	}
	if prof.TotalCycles() != m.Cycles || prof.TotalInstrs() != m.Instrs {
		t.Fatalf("profile %d cycles %d instrs, machine %d %d",
			prof.TotalCycles(), prof.TotalInstrs(), m.Cycles, m.Instrs)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
