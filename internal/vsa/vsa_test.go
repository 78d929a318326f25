package vsa

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
)

func analyzeSrc(t *testing.T, src string) (*obj.Module, *cfg.Graph, *Result) {
	t.Helper()
	mod, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return mod, g, Analyze(mod, g, analysis.FindCanaries(g))
}

// findInstr returns the first instruction in fn matching pred, with its
// containing block.
func findInstr(t *testing.T, g *cfg.Graph, fnEntry uint64,
	pred func(*isa.Instr) bool) (*cfg.BasicBlock, *isa.Instr) {

	t.Helper()
	fn := g.FuncAt(fnEntry)
	if fn == nil {
		t.Fatalf("no function at %#x", fnEntry)
	}
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			if pred(&b.Instrs[i]) {
				return b, &b.Instrs[i]
			}
		}
	}
	t.Fatal("no matching instruction")
	return nil, nil
}

// stateBefore replays the block and returns the abstract state just before
// the given instruction.
func stateBefore(t *testing.T, res *Result, blk *cfg.BasicBlock, addr uint64) *State {
	t.Helper()
	var out *State
	ok := res.WalkBlock(blk, func(i int, in *isa.Instr, st *State) {
		if in.Addr == addr {
			out = st.clone()
		}
	})
	if !ok || out == nil {
		t.Fatalf("no state at %#x", addr)
	}
	return out
}

func TestFrameClaimAndCanaryExclusion(t *testing.T) {
	mod, g, res := analyzeSrc(t, `
.module t
.entry f
.section .text
f:
    push fp
    mov fp, sp
    sub sp, 32
    ldg r6
    stq [fp-8], r6
    mov r1, 7
    stq [fp-24], r1
    ldq r2, [fp-8]
    ldg r3
    cmp r2, r3
    je .ok
    hlt
.ok:
    mov sp, fp
    pop fp
    ret
`)
	entry := mod.FindSymbol("f").Addr
	// push fp (8) + sub sp,32 = 40 frame bytes.
	if fs := res.FrameSizes[entry]; fs != 40 {
		t.Fatalf("frame size = %d, want 40", fs)
	}
	// The canary slot [fp-8] is F-16 (fp == F-8 after the push).
	if slots := res.CanarySlots[entry]; len(slots) != 1 || slots[0] != -16 {
		t.Fatalf("canary slots = %v, want [-16]", slots)
	}

	// The data store [fp-24] = F-32 is provably in-frame and off-canary.
	blk, in := findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpStQ && in.Disp == -24
	})
	st := stateBefore(t, res, blk, in.Addr)
	lo, hi, ok := res.FrameClaim(entry, AddrValue(st, in), 8)
	if !ok || lo != -32 || hi != -25 {
		t.Fatalf("frame claim = [%d,%d] ok=%v, want [-32,-25]", lo, hi, ok)
	}

	// The canary reload [fp-8] overlaps the canary slot: no claim.
	blk, in = findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpLdQ && in.Disp == -8
	})
	st = stateBefore(t, res, blk, in.Addr)
	if _, _, ok := res.FrameClaim(entry, AddrValue(st, in), 8); ok {
		t.Fatal("frame claim must not cover the canary slot")
	}
}

func TestGlobalClaimBounds(t *testing.T) {
	mod, g, res := analyzeSrc(t, `
.module t
.entry f
.section .text
f:
    la r6, arr
    ldq r1, [r6+16]
    ldq r2, [r6+60]
    mov r0, 0
    ret
.section .data
arr:
    .zero 64
`)
	entry := mod.FindSymbol("f").Addr
	blk, in := findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpLdQ && in.Disp == 16
	})
	st := stateBefore(t, res, blk, in.Addr)
	sec, _, _, ok := res.GlobalClaim(AddrValue(st, in), 8)
	if !ok || sec != ".data" {
		t.Fatalf("global claim = %q ok=%v, want .data", sec, ok)
	}
	// [r6+60] reads past the 64-byte section: no claim.
	blk, in = findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpLdQ && in.Disp == 60
	})
	st = stateBefore(t, res, blk, in.Addr)
	if _, _, _, ok := res.GlobalClaim(AddrValue(st, in), 8); ok {
		t.Fatal("global claim past section end must fail")
	}
}

func TestResolveJumpSingleton(t *testing.T) {
	mod, g, res := analyzeSrc(t, `
.module t
.entry f
.section .text
f:
    la r6, disp
    jmpi r6
disp:
    mov r0, 0
    ret
`)
	entry := mod.FindSymbol("f").Addr
	blk, _ := findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpJmpI
	})
	jf := res.ResolveJump(blk)
	if jf == nil || jf.Table || len(jf.Targets) != 1 {
		t.Fatalf("singleton resolution failed: %+v", jf)
	}
	if want := mod.FindSymbol("disp").Addr; jf.Targets[0] != want {
		t.Fatalf("resolved target %#x, want disp=%#x", jf.Targets[0], want)
	}
}

func TestResolveJumpTable(t *testing.T) {
	mod, g, res := analyzeSrc(t, `
.module t
.entry f
.section .text
f:
    cmp r1, 3
    jae .def
    la r6, tbl
    ldxq r7, [r6+r1*8]
    jmpi r7
.def:
    mov r0, 0
    ret
t0:
    mov r0, 1
    ret
t1:
    mov r0, 2
    ret
t2:
    mov r0, 3
    ret
.section .rodata
tbl:
    .quad t0
    .quad t1
    .quad t2
`)
	entry := mod.FindSymbol("f").Addr
	blk, _ := findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpJmpI
	})
	jf := res.ResolveJump(blk)
	if jf == nil || !jf.Table {
		t.Fatalf("table resolution failed: %+v", jf)
	}
	if jf.IdxLo != 0 || jf.IdxHi != 2 || len(jf.Targets) != 3 {
		t.Fatalf("table fact = %+v, want idx [0,2] with 3 targets", jf)
	}
	if jf.TableAddr != mod.FindSymbol("tbl").Addr {
		t.Fatalf("table addr = %#x, want tbl", jf.TableAddr)
	}
	for i, name := range []string{"t0", "t1", "t2"} {
		if want := mod.FindSymbol(name).Addr; jf.Targets[i] != want {
			t.Fatalf("target[%d] = %#x, want %s=%#x", i, jf.Targets[i], name, want)
		}
	}
}

func TestCallSummaries(t *testing.T) {
	mod, _, res := analyzeSrc(t, `
.module t
.entry f
.section .text
f:
    call good
    call bad
    mov r0, 0
    ret
good:
    push r12
    mov r12, 7
    pop r12
    ret
bad:
    mov r12, 9
    ret
`)
	good := res.Summaries[mod.FindSymbol("good").Addr]
	if good == nil || !good.Balanced || !good.Preserved.Has(isa.R12) {
		t.Fatalf("good summary = %+v, want balanced + r12 preserved", good)
	}
	bad := res.Summaries[mod.FindSymbol("bad").Addr]
	if bad == nil || !bad.Balanced || bad.Preserved.Has(isa.R12) {
		t.Fatalf("bad summary = %+v, want balanced without r12", bad)
	}
}

func TestInfeasibleEdgePruned(t *testing.T) {
	mod, g, res := analyzeSrc(t, `
.module t
.entry f
.section .text
f:
    mov r1, 5
    cmp r1, 9
    je .t
    mov r0, 0
    ret
.t:
    mov r0, 1
    ret
`)
	entry := mod.FindSymbol("f").Addr
	taken, _ := findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpMovRI && in.Imm == 1
	})
	if res.WalkBlock(taken, func(int, *isa.Instr, *State) {}) {
		t.Fatal("je-taken edge with 5 != 9 must be infeasible")
	}
	fall, _ := findInstr(t, g, entry, func(in *isa.Instr) bool {
		return in.Op == isa.OpMovRI && in.Imm == 0 && in.Rd == isa.R0
	})
	if !res.WalkBlock(fall, func(int, *isa.Instr, *State) {}) {
		t.Fatal("fallthrough edge must be feasible")
	}
}

// TestArithmeticWrapsToTop: the machine wraps on overflow, so a finite
// bound that leaves the int64 range makes the result Top instead of a
// clamped, false finite bound. A sentinel operand still means unbounded in
// its direction, negated by subtraction.
func TestArithmeticWrapsToTop(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want Value
	}{
		// Clamped, this was the false singleton MaxInt64.
		{"add past max", ConstV(math.MaxInt64 - 1).AddConst(5), Top()},
		// Clamped, this was MaxInt64; the machine gives 0.
		{"mul past max", ConstV(1 << 62).MulConst(4), Top()},
		// Clamped, this was the inverted interval [0, MinInt64].
		{"sub unbounded below", Sub(ConstV(0), ConstRange(math.MinInt64, 0, 1)),
			ConstRange(0, math.MaxInt64, 1)},
		{"add past min", Add(ConstRange(math.MinInt64+1, 0, 1), ConstV(-2)), Top()},
		{"sub past min", Sub(ConstV(math.MinInt64+1), ConstV(2)), Top()},
		{"add to max exactly", ConstV(math.MaxInt64 - 1).AddConst(1), ConstV(math.MaxInt64)},
		{"unbounded stays unbounded", ConstRange(0, math.MaxInt64, 1).AddConst(5),
			ConstRange(5, math.MaxInt64, 1)},
		{"frame stays frame", Sub(EntryV(isa.SP), ConstV(16)), EntryV(isa.SP).AddConst(-16)},
		{"mul in range", ConstRange(-3, 5, 2).MulConst(4), ConstRange(-12, 20, 8)},
	} {
		if !tc.got.Eq(tc.want) || tc.got.Sym != tc.want.Sym {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestValueOps(t *testing.T) {
	a := ConstRange(0, 10, 2)
	b := ConstV(5)
	j := a.Join(b)
	if j.Region != RConst || j.Lo != 0 || j.Hi != 10 {
		t.Fatalf("join = %v", j)
	}
	if v := ConstV(4).AddConst(3); v.Lo != 7 || v.Hi != 7 {
		t.Fatalf("addconst = %v", v)
	}
	if v, ok := ConstRange(0, 100, 1).Intersect(10, 20); !ok || v.Lo != 10 || v.Hi != 20 {
		t.Fatalf("intersect = %v ok=%v", v, ok)
	}
	if _, ok := ConstV(5).Intersect(10, 20); ok {
		t.Fatal("disjoint intersect must report infeasible")
	}
	f := EntryV(isa.SP)
	if !f.IsFrame() || f.AddConst(-8).Lo != -8 {
		t.Fatalf("frame value arithmetic broken: %v", f.AddConst(-8))
	}
	w := ConstV(0).Widen(ConstRange(0, 1, 1))
	if w.Bounded() && w.Hi <= 1 {
		t.Fatalf("widening made no progress: %v", w)
	}
}
