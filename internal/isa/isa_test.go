package isa

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodedSizes(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		size := EncodedSize(op)
		if size == 0 || size > MaxInstrLen {
			t.Errorf("op %v: bad encoded size %d", op, size)
		}
	}
	if EncodedSize(OpInvalid) != 0 {
		t.Error("OpInvalid should have size 0")
	}
	if EncodedSize(Op(200)) != 0 {
		t.Error("out-of-range op should have size 0")
	}
}

func TestEncodingIsVariableLength(t *testing.T) {
	sizes := map[uint32]bool{}
	for op := Op(1); int(op) < NumOps; op++ {
		sizes[EncodedSize(op)] = true
	}
	if len(sizes) < 4 {
		t.Fatalf("expected at least 4 distinct instruction lengths, got %d", len(sizes))
	}
}

// randInstr generates a random valid instruction for the given opcode.
func randInstr(r *rand.Rand, op Op) Instr {
	in := Instr{
		Op:   op,
		Rd:   Register(r.Intn(NumRegs)),
		Rb:   Register(r.Intn(NumRegs)),
		Ri:   Register(r.Intn(NumRegs)),
		Disp: int32(r.Uint32()),
	}
	switch opTable[op].Form {
	case FormRI64:
		in.Imm = int64(r.Uint64())
	case FormRI32, FormImm:
		in.Imm = int64(int32(r.Uint32()))
	}
	// Zero out fields the form does not encode, so the decoded value
	// compares equal to the input.
	switch opTable[op].Form {
	case FormNone:
		in.Rd, in.Rb, in.Ri, in.Disp, in.Imm = 0, 0, 0, 0, 0
	case FormR:
		in.Rb, in.Ri, in.Disp, in.Imm = 0, 0, 0, 0
	case FormRR:
		in.Ri, in.Disp, in.Imm = 0, 0, 0
	case FormRI64, FormRI32:
		in.Rb, in.Ri, in.Disp = 0, 0, 0
	case FormMem:
		in.Ri, in.Imm = 0, 0
	case FormMemX:
		in.Imm = 0
	case FormPC:
		in.Rb, in.Ri, in.Imm = 0, 0, 0
	case FormBr:
		in.Rd, in.Rb, in.Ri, in.Imm = 0, 0, 0, 0
	case FormImm:
		in.Rd, in.Rb, in.Ri, in.Disp = 0, 0, 0, 0
	}
	return in
}

// TestEncodeDecodeRoundtrip is the core property test: decode(encode(i)) == i
// for every opcode with random operands.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for op := Op(1); int(op) < NumOps; op++ {
		for trial := 0; trial < 50; trial++ {
			want := randInstr(r, op)
			buf := Encode(nil, &want)
			if uint32(len(buf)) != EncodedSize(op) {
				t.Fatalf("%v: encoded %d bytes, want %d", op, len(buf), EncodedSize(op))
			}
			got, err := Decode(buf, 0)
			if err != nil {
				t.Fatalf("%v: decode: %v", op, err)
			}
			got.Size = 0 // decoded size checked above
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v roundtrip:\n got %+v\nwant %+v", op, got, want)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty buffer: got %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte{0}, 0); !errors.Is(err, ErrBadOpcode) {
		t.Errorf("zero opcode: got %v, want ErrBadOpcode", err)
	}
	if _, err := Decode([]byte{255}, 0); !errors.Is(err, ErrBadOpcode) {
		t.Errorf("opcode 255: got %v, want ErrBadOpcode", err)
	}
	// MovRI needs 10 bytes.
	if _, err := Decode([]byte{byte(OpMovRI), 0, 1, 2}, 0); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated MovRI: got %v, want ErrTruncated", err)
	}
	// Register out of range.
	if _, err := Decode([]byte{byte(OpPush), 16}, 0); !errors.Is(err, ErrBadRegister) {
		t.Errorf("push r16: got %v, want ErrBadRegister", err)
	}
}

func TestTarget(t *testing.T) {
	in := Instr{Op: OpJmp, Addr: 0x1000, Size: 5, Disp: 0x20}
	if got := in.Target(); got != 0x1025 {
		t.Errorf("forward target = %#x, want 0x1025", got)
	}
	in.Disp = -0x10
	if got := in.Target(); got != 0xff5 {
		t.Errorf("backward target = %#x, want 0xff5", got)
	}
}

func TestPredicates(t *testing.T) {
	tests := []struct {
		op                       Op
		cti, cond, indirect, mem bool
		store                    bool
		width                    int
		setsFlags, readsFlags    bool
	}{
		{op: OpJmp, cti: true},
		{op: OpJe, cti: true, cond: true, readsFlags: true},
		{op: OpJmpI, cti: true, indirect: true},
		{op: OpCallI, cti: true, indirect: true},
		{op: OpRet, cti: true, indirect: true},
		{op: OpCall, cti: true},
		{op: OpHlt, cti: true},
		{op: OpLdQ, mem: true, width: 8},
		{op: OpStB, mem: true, store: true, width: 1},
		{op: OpStXQ, mem: true, store: true, width: 8},
		{op: OpAddRR, setsFlags: true},
		{op: OpCmpRI, setsFlags: true},
		{op: OpMovRR},
		{op: OpLea},
		{op: OpPushF, readsFlags: true},
		{op: OpPopF, setsFlags: true},
	}
	for _, tt := range tests {
		in := Instr{Op: tt.op}
		if got := in.IsCTI(); got != tt.cti {
			t.Errorf("%v.IsCTI() = %v, want %v", tt.op, got, tt.cti)
		}
		if got := in.IsCondBranch(); got != tt.cond {
			t.Errorf("%v.IsCondBranch() = %v, want %v", tt.op, got, tt.cond)
		}
		if got := in.IsIndirectCTI(); got != tt.indirect {
			t.Errorf("%v.IsIndirectCTI() = %v, want %v", tt.op, got, tt.indirect)
		}
		if got := in.IsMemAccess(); got != tt.mem {
			t.Errorf("%v.IsMemAccess() = %v, want %v", tt.op, got, tt.mem)
		}
		if got := in.IsStore(); got != tt.store {
			t.Errorf("%v.IsStore() = %v, want %v", tt.op, got, tt.store)
		}
		if got := in.AccessWidth(); got != tt.width {
			t.Errorf("%v.AccessWidth() = %v, want %v", tt.op, got, tt.width)
		}
		if got := in.SetsFlags(); got != tt.setsFlags {
			t.Errorf("%v.SetsFlags() = %v, want %v", tt.op, got, tt.setsFlags)
		}
		if got := in.ReadsFlags(); got != tt.readsFlags {
			t.Errorf("%v.ReadsFlags() = %v, want %v", tt.op, got, tt.readsFlags)
		}
	}
}

func TestRegUsesDefs(t *testing.T) {
	in := Instr{Op: OpAddRR, Rd: R3, Rb: R4}
	uses := in.RegUses(nil)
	if len(uses) != 2 || uses[0] != R3 || uses[1] != R4 {
		t.Errorf("add r3,r4 uses = %v, want [r3 r4]", uses)
	}
	defs := in.RegDefs(nil)
	if len(defs) != 1 || defs[0] != R3 {
		t.Errorf("add r3,r4 defs = %v, want [r3]", defs)
	}

	st := Instr{Op: OpStXQ, Rd: R1, Rb: R2, Ri: R3}
	uses = st.RegUses(nil)
	if len(uses) != 3 {
		t.Errorf("stxq uses = %v, want 3 registers", uses)
	}
	if len(st.RegDefs(nil)) != 0 {
		t.Errorf("stxq should define no registers")
	}

	pop := Instr{Op: OpPop, Rd: R5}
	defs = pop.RegDefs(nil)
	want := map[Register]bool{R5: true, SP: true}
	for _, d := range defs {
		if !want[d] {
			t.Errorf("pop defs include unexpected %v", d)
		}
		delete(want, d)
	}
	if len(want) != 0 {
		t.Errorf("pop defs missing %v", want)
	}
}

// TestDecodeAllSequence checks sequential decoding of a hand-built stream.
func TestDecodeAllSequence(t *testing.T) {
	prog := []Instr{
		{Op: OpMovRI, Rd: R1, Imm: 42},
		{Op: OpAddRI, Rd: R1, Imm: 1},
		{Op: OpPush, Rd: R1},
		{Op: OpPop, Rd: R2},
		{Op: OpRet},
	}
	var buf []byte
	for i := range prog {
		buf = Encode(buf, &prog[i])
	}
	got, err := DecodeAll(buf, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prog) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(prog))
	}
	wantAddr := uint64(0x400000)
	for i := range got {
		if got[i].Op != prog[i].Op {
			t.Errorf("instr %d: op %v, want %v", i, got[i].Op, prog[i].Op)
		}
		if got[i].Addr != wantAddr {
			t.Errorf("instr %d: addr %#x, want %#x", i, got[i].Addr, wantAddr)
		}
		wantAddr += uint64(got[i].Size)
	}
}

// TestMisalignedDecodeDiffers demonstrates the code/data ambiguity property:
// decoding from a misaligned offset does not reproduce the aligned stream.
func TestMisalignedDecodeDiffers(t *testing.T) {
	var buf []byte
	buf = Encode(buf, &Instr{Op: OpMovRI, Rd: R1, Imm: 0x0101010101010101})
	buf = Encode(buf, &Instr{Op: OpRet})
	aligned, err := DecodeAll(buf, 0)
	if err != nil || len(aligned) != 2 {
		t.Fatalf("aligned decode failed: %v (%d instrs)", err, len(aligned))
	}
	misaligned, _ := DecodeAll(buf[1:], 1)
	if len(misaligned) == len(aligned) {
		same := true
		for i := range misaligned {
			if misaligned[i].Op != aligned[i].Op {
				same = false
			}
		}
		if same {
			t.Error("misaligned decode unexpectedly reproduced the aligned stream")
		}
	}
}

// Property: Disasm never returns an empty string and always starts with the
// opcode mnemonic.
func TestDisasmProperty(t *testing.T) {
	f := func(opRaw uint8, rd, rb, ri uint8, imm int64, disp int32) bool {
		op := Op(1 + int(opRaw)%(NumOps-1))
		in := Instr{
			Op: op, Rd: Register(rd % NumRegs), Rb: Register(rb % NumRegs),
			Ri: Register(ri % NumRegs), Imm: imm, Disp: disp, Size: EncodedSize(op),
		}
		s := Disasm(&in)
		return s != "" && strings.HasPrefix(s, op.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisasmFormats(t *testing.T) {
	tests := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpMovRI, Rd: R1, Imm: 42}, "mov r1, 42"},
		{Instr{Op: OpLdQ, Rd: R2, Rb: SP, Disp: 8}, "ldq r2, [sp+8]"},
		{Instr{Op: OpStQ, Rd: R2, Rb: FP, Disp: -16}, "stq [fp-16], r2"},
		{Instr{Op: OpRet}, "ret"},
		{Instr{Op: OpPush, Rd: R12}, "push r12"},
		{Instr{Op: OpLdXQ, Rd: R0, Rb: R1, Ri: R2, Disp: 0}, "ldxq r0, [r1+r2*8+0]"},
		{Instr{Op: OpJmp, Addr: 0x100, Size: 5, Disp: 11}, "jmp 0x110"},
		{Instr{Op: OpTrap, Imm: 7}, "trap 7"},
	}
	for _, tt := range tests {
		if got := Disasm(&tt.in); got != tt.want {
			t.Errorf("Disasm(%+v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestRegisterString(t *testing.T) {
	if R3.String() != "r3" || SP.String() != "sp" || FP.String() != "fp" {
		t.Errorf("register names wrong: %v %v %v", R3, SP, FP)
	}
}

func TestFlagString(t *testing.T) {
	if (FlagZ | FlagC).String() != "ZC" {
		t.Errorf("FlagZ|FlagC = %q", (FlagZ | FlagC).String())
	}
	if Flag(0).String() != "-" {
		t.Errorf("zero flag = %q", Flag(0).String())
	}
}
