package shadow

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
	"repro/internal/vsa"
)

// dedupProg is one basic block exercising every planner rule. The
// `mov r9, 0` is the barrier the tests install.
const dedupProg = `
.module prog
.entry _start
.section .text
_start:
    stq [r12+8], r6
    ldq r7, [r12+8]
    ldb r7, [r12+8]
    ldq r7, [r12+16]
    ldb r7, [r12+24]
    ldq r7, [r12+24]
    mov r12, r7
    ldq r8, [r12+8]
    mov r9, 0
    ldq r8, [r12+8]
    ldb r8, [r12+8]
    mov r1, 0
    mov r0, 1
    syscall
`

// planDedup runs d over dedupProg's entry block and returns the elided
// accesses as instruction index → anchor index.
func planDedup(t *testing.T, d Dedup) map[int]int {
	t.Helper()
	mod, err := asm.Assemble(dedupProg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	sc := &core.StaticContext{Module: mod, Graph: g,
		DefUse: analysis.ComputeDefUse(g), Proofs: vsa.NewProofSet(mod.Name, "test")}
	blk := g.BlockAt(mod.Entry)
	index := map[uint64]int{}
	for i, in := range blk.Instrs {
		index[in.Addr] = i
	}
	got := map[int]int{}
	d.Plan(sc, blk, func(instr, anchor uint64) { got[index[instr]] = index[anchor] })
	if n := sc.Proofs.NumClaims(); n != len(got) {
		t.Errorf("%d claims recorded for %d elisions", n, len(got))
	}
	return got
}

func isBarrier(in *isa.Instr) bool { return in.Op == isa.OpMovRI && in.Rd == isa.R9 }

func checkPlan(t *testing.T, got, want map[int]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("elided %v, want %v", got, want)
		return
	}
	for i, a := range want {
		if got[i] != a {
			t.Errorf("elided %v, want %v", got, want)
			return
		}
	}
}

func TestDedupPlanEveryAccessAnchors(t *testing.T) {
	got := planDedup(t, Dedup{Kind: vsa.ClaimDedup, Barrier: isBarrier})
	// 1 and 2 re-check 0's address (2 is narrower); 5 is wider than its
	// anchor 4; 7 follows a redefinition of r12; 9 follows the barrier,
	// and 10 re-checks 9.
	checkPlan(t, got, map[int]int{1: 0, 2: 0, 10: 9})
}

func TestDedupPlanStoresAnchor(t *testing.T) {
	got := planDedup(t, Dedup{Kind: vsa.ClaimDefInit, Barrier: isBarrier,
		StoresAnchor: true})
	// Only the store anchors: 10 may not lean on the load at 9.
	checkPlan(t, got, map[int]int{1: 0, 2: 0})
}

func TestDedupPlanSkip(t *testing.T) {
	got := planDedup(t, Dedup{Kind: vsa.ClaimDedup, Barrier: isBarrier,
		Skip: func(in *isa.Instr) bool { return in.Op == isa.OpStQ }})
	// The skipped store neither anchors nor is elided: 1 anchors instead.
	checkPlan(t, got, map[int]int{2: 1, 10: 9})
}

func TestBitmapUnalignedHeadAndTail(t *testing.T) {
	b := Bitmap{M: vm.New(), Base: isa.LayoutDefShadowBase}
	b.Set(0x1003, 10, true) // bytes 0x1003..0x100c
	for _, c := range []struct {
		addr, n uint64
		first   uint64
		found   bool
	}{
		{0x1000, 3, 0, false},
		{0x1000, 4, 0x1003, true},
		{0x1000, 16, 0x1003, true},
		{0x100c, 1, 0x100c, true},
		{0x100d, 8, 0, false},
		{0x1003, 0, 0, false},
	} {
		first, found := b.FirstSet(c.addr, c.n)
		if first != c.first || found != c.found {
			t.Errorf("FirstSet(%#x, %d) = %#x, %t; want %#x, %t",
				c.addr, c.n, first, found, c.first, c.found)
		}
	}
	head, _ := b.M.Mem.ReadB(b.Base + 0x1000/8)
	tail, _ := b.M.Mem.ReadB(b.Base + 0x1008/8)
	if head != 0xf8 || tail != 0x1f {
		t.Fatalf("shadow bytes = %#x %#x, want 0xf8 0x1f", head, tail)
	}
	b.Set(0x1005, 5, false) // clear 0x1005..0x1009 only
	head, _ = b.M.Mem.ReadB(b.Base + 0x1000/8)
	tail, _ = b.M.Mem.ReadB(b.Base + 0x1008/8)
	if head != 0x18 || tail != 0x1c {
		t.Fatalf("after clear: shadow bytes = %#x %#x, want 0x18 0x1c", head, tail)
	}
}

func TestBitmapWholeGranulesAndEmptyRange(t *testing.T) {
	b := Bitmap{M: vm.New(), Base: isa.LayoutGenShadowBase}
	b.Set(0x2000, 0, true)
	if _, found := b.FirstSet(0x2000, 64); found {
		t.Fatal("n=0 set a bit")
	}
	b.Set(0x2000, 16, true)
	for _, a := range []uint64{0x2000, 0x2008} {
		if v, _ := b.M.Mem.ReadB(b.Base + a/8); v != 0xff {
			t.Fatalf("granule %#x = %#x, want 0xff", a, v)
		}
	}
	b.Set(0x2000, 16, false)
	if _, found := b.FirstSet(0x2000, 16); found {
		t.Fatal("clear left a bit set")
	}
}

func TestBitmapStopsAtShadowBase(t *testing.T) {
	b := Bitmap{M: vm.New(), Base: isa.LayoutDefShadowBase}
	lim := isa.LayoutShadowBase
	b.Set(lim-4, 16, true) // crosses the covered range's end
	if first, found := b.FirstSet(lim-8, 8); !found || first != lim-4 {
		t.Fatalf("FirstSet below the limit = %#x, %t; want %#x, true", first, found, lim-4)
	}
	if v, _ := b.M.Mem.ReadB(b.Base + lim/8); v != 0 {
		t.Fatalf("bitmap written at the limit: %#x", v)
	}
	b.Set(lim, 8, true)
	if _, found := b.FirstSet(lim, 8); found {
		t.Fatal("address at the limit is covered")
	}
	// addr+n wraps: the range is clamped to the limit, not dropped.
	b.Set(lim-32, ^uint64(0)-8, true)
	if first, found := b.FirstSet(lim-32, 8); !found || first != lim-32 {
		t.Fatalf("wrapping Set missed its head: %#x, %t", first, found)
	}
	if v, _ := b.M.Mem.ReadB(b.Base + lim/8); v != 0 {
		t.Fatalf("wrapping Set wrote past the limit: %#x", v)
	}
}

// testViolation is a minimal Log entry.
type testViolation struct{ pc, addr uint64 }

func (v testViolation) Fault() *vm.Fault {
	return &vm.Fault{PC: v.pc, Addr: v.addr, Kind: "test: bad"}
}

func TestLogCapsStorageButCountsAll(t *testing.T) {
	var l Log[testViolation]
	for i := 0; i < MaxStored+5; i++ {
		if err := l.Add(testViolation{pc: uint64(i)}); err != nil {
			t.Fatalf("recovering log returned %v", err)
		}
	}
	if l.Total != MaxStored+5 || len(l.Violations) != MaxStored {
		t.Fatalf("total %d, stored %d; want %d, %d",
			l.Total, len(l.Violations), MaxStored+5, MaxStored)
	}
	if last := l.Violations[MaxStored-1].pc; last != MaxStored-1 {
		t.Fatalf("last stored violation pc %d, want the earliest ones kept", last)
	}
}

func TestLogHaltOnErrorFault(t *testing.T) {
	l := Log[testViolation]{HaltOnError: true}
	err := l.Add(testViolation{pc: 0x400100, addr: 0x20000018})
	f, ok := err.(*vm.Fault)
	if !ok || f.PC != 0x400100 || f.Addr != 0x20000018 || f.Kind != "test: bad" {
		t.Fatalf("halting Add returned %#v", err)
	}
	if l.Total != 1 || len(l.Violations) != 1 {
		t.Fatalf("halting Add did not record: total %d", l.Total)
	}
}

func TestFamilyInstallsEveryRegisterAndWidth(t *testing.T) {
	const fam Family = 700
	m := vm.New()
	type hit struct {
		addr  uint64
		width int
	}
	var got hit
	fam.Install(m, func(_ *vm.Machine, addr uint64, width int) error {
		got = hit{addr, width}
		return nil
	})
	codes := map[int64]bool{}
	for reg := isa.Register(0); reg < isa.NumRegs; reg++ {
		for _, width := range []int{1, 8} {
			code := fam.Code(reg, width)
			codes[code] = true
			h := m.TrapHandlerFor(code)
			if h == nil {
				t.Fatalf("no handler for r%d width %d (code %d)", reg, width, code)
			}
			m.Regs[reg] = 0x1000 + uint64(reg)
			if err := h(m); err != nil {
				t.Fatal(err)
			}
			if want := (hit{0x1000 + uint64(reg), width}); got != want {
				t.Fatalf("code %d delivered %+v, want %+v", code, got, want)
			}
		}
	}
	if len(codes) != 2*isa.NumRegs {
		t.Fatalf("%d distinct codes, want %d", len(codes), 2*isa.NumRegs)
	}
	if fam.Code(isa.R3, 1) != 703 || fam.Code(isa.R3, 8) != 703+widthBit {
		t.Fatalf("code layout changed: %d %d", fam.Code(isa.R3, 1), fam.Code(isa.R3, 8))
	}
}
