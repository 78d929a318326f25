package vm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// Exit shapes of the check idiom's je.
const (
	exitInBlock = iota // je continues inside the block (JumpTo >= 0)
	exitLeave          // je leaves the block (JumpTo -1) with code after it
	exitEnd            // je leaves the block and is its last instruction
)

// Shadow bytes the idiom's load finds.
const (
	shadowZero = iota
	shadowPoisoned
	shadowOutOfRange // the shadow address lies beyond AddrLimit
)

// checkStart is the index of the idiom in the blocks checkBlock builds.
const checkStart = 1

// checkBlock builds a block holding one shadow-check idiom at checkStart,
// after one application instruction:
//
//	0: add r3, 1
//	1: lea|leaX|leaXB r6, [r1 (+ r2*s) + 24]
//	2: mov r7, r6
//	3: shr r7, 3
//	4: add r7, SHADOW_BASE
//	5: ldb|ldq r7, [r7]
//	6: test r7, r7
//	7: je    (exitInBlock: to 9; exitLeave, exitEnd: out of the block)
//	8: mov r0, 0x99        (absent for exitEnd)
//	9: add r3, 2           (absent for exitEnd)
func checkBlock(leaOp, ldOp isa.Op, exit int, meta bool) []CInstr {
	ins := []isa.Instr{
		{Op: isa.OpAddRI, Rd: isa.R3, Imm: 1},
		{Op: leaOp, Rd: isa.R6, Rb: isa.R1, Ri: isa.R2, Disp: 24},
		{Op: isa.OpMovRR, Rd: isa.R7, Rb: isa.R6},
		{Op: isa.OpShrRI, Rd: isa.R7, Imm: 3},
		{Op: isa.OpAddRI, Rd: isa.R7, Imm: int64(isa.LayoutShadowBase)},
		{Op: ldOp, Rd: isa.R7, Rb: isa.R7},
		{Op: isa.OpTestRR, Rd: isa.R7, Rb: isa.R7},
		{Op: isa.OpJe, Disp: 0x40},
		{Op: isa.OpMovRI, Rd: isa.R0, Imm: 0x99},
		{Op: isa.OpAddRI, Rd: isa.R3, Imm: 2},
	}
	if exit == exitEnd {
		ins = ins[:checkStart+checkLen]
	}
	code := make([]CInstr, len(ins))
	addr := uint64(0x4000)
	for i, in := range ins {
		in.Addr, in.Size = addr, isa.EncodedSize(in.Op)
		addr += uint64(in.Size)
		code[i] = CInstr{In: in, JumpTo: -1}
		if meta && i >= checkStart && i < checkStart+checkLen {
			code[i].Meta, code[i].CC = true, telemetry.CCMemCheck
		}
	}
	if exit == exitInBlock {
		code[checkStart+checkLen-1].JumpTo = 9
	}
	return code
}

// runState is everything one run of m.run leaves behind.
type runState struct {
	Regs          [isa.NumRegs]uint64
	Flags         isa.Flag
	PC            uint64
	Instrs        uint64
	Cycles        uint64
	Profile       *telemetry.Profile
	Exit          int // index of the returned instruction, or -1
	Err           string
	FaultPC, Addr uint64
}

// runCheckBlock runs code once on a fresh machine whose budget admits
// budget more instructions (0: no budget) and returns what it left.
func runCheckBlock(code []CInstr, ldOp isa.Op, shadow int, budget uint64, profiled bool) runState {
	m := New()
	m.Regs[isa.R1] = isa.LayoutHeapBase + 0x40
	m.Regs[isa.R2] = 5
	m.Regs[isa.R3] = 100
	if shadow == shadowOutOfRange {
		m.Regs[isa.R1] = 1 << 62
	}
	m.Flags = isa.FlagC | isa.FlagO
	m.PC = 0x1234
	m.Instrs, m.Cycles = 1000, 5000
	if budget > 0 {
		m.MaxInstrs = m.Instrs + budget
	}
	if shadow == shadowPoisoned {
		var s1 uint64
		switch code[checkStart].In.Op {
		case isa.OpLea:
			s1 = ea(&m.Regs, &code[checkStart].In)
		case isa.OpLeaX:
			s1 = eax8(&m.Regs, &code[checkStart].In)
		default:
			s1 = eax1(&m.Regs, &code[checkStart].In)
		}
		sh := s1>>3 + isa.LayoutShadowBase
		if ldOp == isa.OpLdB {
			m.Mem.WriteB(sh, 0x84)
		} else {
			m.Mem.Write64(sh, 1<<63|0x84)
		}
	}
	var prof *telemetry.Profile
	if profiled {
		prof = &telemetry.Profile{}
	}
	exit, err := m.run(code, prof)
	st := runState{Regs: m.Regs, Flags: m.Flags, PC: m.PC, Instrs: m.Instrs,
		Cycles: m.Cycles, Profile: prof, Exit: -1}
	for i := range code {
		if exit == &code[i] {
			st.Exit = i
		}
	}
	if err != nil {
		st.Err = err.Error()
		var f *Fault
		if errors.As(err, &f) {
			st.FaultPC, st.Addr = f.PC, f.Addr
		}
	}
	return st
}

// TestFusedCheckMatchesStepped pins the fused check to the switch: the same
// code, fused and unfused, must leave identical registers, flags, PC,
// counters, profile, exit and error across every idiom shape, shadow state,
// exit, attribution, and a budget that runs out at each of its
// instructions.
func TestFusedCheckMatchesStepped(t *testing.T) {
	for _, leaOp := range []isa.Op{isa.OpLea, isa.OpLeaX, isa.OpLeaXB} {
		for _, ldOp := range []isa.Op{isa.OpLdB, isa.OpLdQ} {
			for _, exit := range []int{exitInBlock, exitLeave, exitEnd} {
				for _, meta := range []bool{false, true} {
					stepped := checkBlock(leaOp, ldOp, exit, meta)
					fused := checkBlock(leaOp, ldOp, exit, meta)
					if got := FuseChecks(fused); got != 1 || !fused[checkStart].fused {
						t.Fatalf("%v/%v exit %d meta %v: FuseChecks marked %d, want the idiom at %d",
							leaOp, ldOp, exit, meta, got, checkStart)
					}
					for shadow := shadowZero; shadow <= shadowOutOfRange; shadow++ {
						for budget := uint64(0); budget <= checkStart+checkLen+2; budget++ {
							for _, profiled := range []bool{false, true} {
								name := fmt.Sprintf("%v/%v exit %d meta %v shadow %d budget %d prof %v",
									leaOp, ldOp, exit, meta, shadow, budget, profiled)
								want := runCheckBlock(stepped, ldOp, shadow, budget, profiled)
								got := runCheckBlock(fused, ldOp, shadow, budget, profiled)
								if !reflect.DeepEqual(got, want) {
									t.Errorf("%s:\nfused   %+v\nstepped %+v", name, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestFuseChecksMarksOnlyTheIdiom checks that every departure from the
// emitters' shape or dataflow, and any branch into the idiom, leaves the
// code unfused.
func TestFuseChecksMarksOnlyTheIdiom(t *testing.T) {
	idiom := func() []CInstr { return checkBlock(isa.OpLea, isa.OpLdB, exitInBlock, true) }
	at := func(code []CInstr, j int) *CInstr { return &code[checkStart+j] }
	cases := []struct {
		name string
		edit func([]CInstr)
		want int
	}{
		{"idiom", func([]CInstr) {}, 1},
		{"branch to its start", func(c []CInstr) { c[9].JumpTo = checkStart }, 1},
		{"lea shape", func(c []CInstr) { at(c, 0).In.Op = isa.OpMovRR }, 0},
		{"load shape", func(c []CInstr) { at(c, 4).In.Op = isa.OpLdXB }, 0},
		{"jne", func(c []CInstr) { at(c, 6).In.Op = isa.OpJne }, 0},
		{"mov reads another register", func(c []CInstr) { at(c, 1).In.Rb = isa.R5 }, 0},
		{"s1 == s2", func(c []CInstr) {
			for j := 1; j < 6; j++ {
				at(c, j).In.Rd = isa.R6
			}
			at(c, 1).In.Rb, at(c, 4).In.Rb, at(c, 5).In.Rb = isa.R6, isa.R6, isa.R6
		}, 0},
		{"shr on another register", func(c []CInstr) { at(c, 2).In.Rd = isa.R5 }, 0},
		{"load from another base", func(c []CInstr) { at(c, 4).In.Rb = isa.R5 }, 0},
		{"test against another register", func(c []CInstr) { at(c, 5).In.Rb = isa.R5 }, 0},
		{"mixed cost centers", func(c []CInstr) { at(c, 4).CC = telemetry.CCGenCheck }, 0},
		{"mixed meta", func(c []CInstr) { at(c, 6).Meta = false }, 0},
		{"branch into the idiom", func(c []CInstr) { c[9].JumpTo = checkStart + 3 }, 0},
		{"branch to its je", func(c []CInstr) { c[9].JumpTo = checkStart + 6 }, 0},
	}
	for _, tc := range cases {
		code := idiom()
		tc.edit(code)
		if got := FuseChecks(code); got != tc.want {
			t.Errorf("%s: FuseChecks = %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := FuseChecks(idiom()[:checkStart+checkLen-1]); got != 0 {
		t.Errorf("truncated: FuseChecks = %d, want 0", got)
	}
	// Back-to-back checks fuse independently, and a second pass over
	// changed code clears a stale mark.
	code := append(idiom()[:checkStart+checkLen], idiom()[checkStart:]...)
	for i := range code {
		code[i].JumpTo = -1
	}
	if got := FuseChecks(code); got != 2 {
		t.Errorf("back-to-back: FuseChecks = %d, want 2", got)
	}
	code[len(code)-1].JumpTo = checkStart + 2
	if got := FuseChecks(code); got != 1 || code[checkStart].fused {
		t.Errorf("re-fused after edit: FuseChecks = %d, first still marked %v", got, code[checkStart].fused)
	}
}
