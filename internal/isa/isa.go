// Package isa defines the Janitizer Virtual Architecture (JVA): a 64-bit,
// variable-length encoded instruction set used as the reproduction substrate
// for binary analysis and rewriting experiments.
//
// JVA deliberately preserves the properties of x86 that make binary security
// hard and that the Janitizer paper (CGO 2025) exploits or works around:
//
//   - variable-length instruction encoding, so disassembly from an arbitrary
//     byte offset is ambiguous and code/data disambiguation is undecidable;
//   - arithmetic flags set implicitly by ALU instructions and consumed by
//     conditional branches, so instrumentation must preserve flag liveness;
//   - CALL pushes the return address on the data stack and RET pops it, so
//     return addresses are corruptible and shadow stacks are meaningful;
//   - indirect calls and jumps through registers, whose targets cannot be
//     resolved statically;
//   - PC-relative loads and address formation for position-independent code.
package isa

// Register names the 16 general-purpose registers r0..r15.
//
// Calling convention (enforced by the jcc compiler and libj runtime):
//
//	r0        return value, caller-saved
//	r1..r5    arguments 1..5, caller-saved
//	r6..r11   temporaries, caller-saved
//	r12..r13  callee-saved
//	r14      frame pointer (FP), callee-saved
//	r15      stack pointer (SP)
type Register uint8

// Well-known registers.
const (
	R0 Register = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	FP // r14
	SP // r15

	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
)

func (r Register) String() string {
	switch r {
	case FP:
		return "fp"
	case SP:
		return "sp"
	}
	return "r" + itoa(int(r))
}

// Flag identifies one of the four arithmetic condition flags.
type Flag uint8

// Condition flags, set by ALU instructions and consumed by conditional jumps.
const (
	FlagZ Flag = 1 << iota // zero
	FlagS                  // sign
	FlagC                  // carry (unsigned overflow / borrow)
	FlagO                  // signed overflow

	// AllFlags is the mask of every condition flag.
	AllFlags = FlagZ | FlagS | FlagC | FlagO
)

func (f Flag) String() string {
	s := ""
	if f&FlagZ != 0 {
		s += "Z"
	}
	if f&FlagS != 0 {
		s += "S"
	}
	if f&FlagC != 0 {
		s += "C"
	}
	if f&FlagO != 0 {
		s += "O"
	}
	if s == "" {
		return "-"
	}
	return s
}

// Op is a JVA opcode.
type Op uint8

// Opcodes. The numeric values are part of the binary encoding and must not
// be reordered; new opcodes may only be appended.
const (
	// OpInvalid is the zero opcode; decoding it is an error. Keeping zero
	// invalid means zero-filled memory never decodes as valid code.
	OpInvalid Op = iota

	// Data movement.
	OpMovRI // mov rd, imm64
	OpMovRR // mov rd, rs
	OpLdQ   // ldq rd, [rb+disp]      load 8 bytes
	OpStQ   // stq [rb+disp], rs      store 8 bytes
	OpLdB   // ldb rd, [rb+disp]      load 1 byte, zero-extend
	OpStB   // stb [rb+disp], rs      store 1 byte (low byte of rs)
	OpLdXQ  // ldxq rd, [rb+ri*8+disp]
	OpStXQ  // stxq [rb+ri*8+disp], rs
	OpLdXB  // ldxb rd, [rb+ri+disp]
	OpStXB  // stxb [rb+ri+disp], rs
	OpLea   // lea rd, [rb+disp]
	OpLdPC  // ldpc rd, [pc+disp]     PC-relative 8-byte load (GOT access)
	OpLeaPC // leapc rd, [pc+disp]    PC-relative address formation
	OpLdG   // ldg rd                 load the stack-canary secret (TLS slot)

	// ALU, register-register. All set Z/S/C/O.
	OpAddRR
	OpSubRR
	OpMulRR
	OpDivRR // quotient; divide by zero faults
	OpRemRR
	OpAndRR
	OpOrRR
	OpXorRR
	OpShlRR
	OpShrRR

	// ALU, register-immediate (imm32, sign-extended). All set Z/S/C/O.
	OpAddRI
	OpSubRI
	OpMulRI
	OpAndRI
	OpOrRI
	OpXorRI
	OpShlRI
	OpShrRI

	// Compare and test (set flags, no destination write).
	OpCmpRR
	OpCmpRI
	OpTestRR

	// Unary (set flags).
	OpNot
	OpNeg

	// Stack.
	OpPush
	OpPop
	OpPushF // push flags word
	OpPopF  // pop flags word

	// Control transfer. Direct targets are PC-relative displacements from
	// the address of the *next* instruction.
	OpJmp
	OpJmpI // jmpi rs (indirect jump)
	OpJe
	OpJne
	OpJl
	OpJle
	OpJg
	OpJge
	OpJb  // unsigned <
	OpJae // unsigned >=
	OpCall
	OpCallI // calli rs (indirect call)
	OpRet

	// System.
	OpSyscall // r0=number, r1..r5 args, result in r0
	OpTrap    // trap imm32: VM service call (allocator, dlopen, reports)
	OpNop
	OpHlt

	// Indexed address formation (no flags set): added for inline
	// instrumentation that must compute access addresses without
	// disturbing arithmetic flags.
	OpLeaX  // leax rd, [rb+ri*8+disp]
	OpLeaXB // leaxb rd, [rb+ri+disp]

	opMax // sentinel; not a real opcode
)

// NumOps is the number of defined opcodes (including OpInvalid).
const NumOps = int(opMax)

func (o Op) String() string {
	if n := opTable[o].Name; n != "" {
		return n
	}
	return "op(" + itoa(int(o)) + ")"
}

// Instr is one decoded JVA instruction. Addr and Size are filled in by the
// decoder (and by the assembler after layout); the remaining fields are
// operands whose meaning depends on Op.
type Instr struct {
	Op   Op
	Rd   Register // destination (or source for stores/push)
	Rb   Register // base register for memory operands
	Ri   Register // index register for indexed memory operands
	Imm  int64    // immediate (MovRI: 64-bit; *RI ALU, Trap: 32-bit)
	Disp int32    // memory displacement or branch displacement
	Addr uint64   // address the instruction was decoded from (0 if synthetic)
	Size uint32   // encoded size in bytes
}

// Target returns the absolute target address of a direct control-transfer
// instruction (Jmp, Jcc, Call), computed from Addr, Size and Disp.
// It must not be called on other opcodes.
func (in *Instr) Target() uint64 {
	return in.Addr + uint64(in.Size) + uint64(int64(in.Disp))
}

// IsCTI reports whether the instruction is a control-transfer instruction:
// any jump, call or return, or a halt.
func (in *Instr) IsCTI() bool { return opTable[in.Op].Flow != FlowNone }

// IsCondBranch reports whether the instruction is a conditional branch.
func (in *Instr) IsCondBranch() bool { return opTable[in.Op].Flow == FlowCond }

// IsIndirectCTI reports whether the instruction is an indirect control
// transfer (register-target jump or call, or a return).
func (in *Instr) IsIndirectCTI() bool {
	f := opTable[in.Op].Flow
	return f == FlowIndirect || f == FlowCallIndirect || f == FlowRet
}

// MemAddr returns how a load or store forms its address: AddrBase,
// AddrIndex8 or AddrIndex1. It returns AddrNone for any other instruction,
// push, pop and the PC-relative GOT load included.
func (in *Instr) MemAddr() Addressing {
	if o := &opTable[in.Op]; o.Mem != MemNone && o.Addr <= AddrIndex1 {
		return o.Addr
	}
	return AddrNone
}

// IsMemAccess reports whether the instruction reads or writes application
// memory through a computed address (loads, stores; push/pop and PC-relative
// GOT loads are excluded: they access the stack or read-only linkage data).
func (in *Instr) IsMemAccess() bool { return in.MemAddr() != AddrNone }

// IsStore reports whether the instruction writes memory (excluding push).
func (in *Instr) IsStore() bool {
	return in.MemAddr() != AddrNone && opTable[in.Op].Mem == MemStore
}

// AccessWidth returns the width in bytes of a memory access instruction,
// or 0 for non-memory instructions.
func (in *Instr) AccessWidth() int {
	if in.MemAddr() == AddrNone {
		return 0
	}
	return int(opTable[in.Op].Width)
}

// SetsFlags reports whether the instruction writes the condition flags.
func (in *Instr) SetsFlags() bool { return opTable[in.Op].Flags&FlagsWritten != 0 }

// ReadsFlags reports whether the instruction reads the condition flags.
func (in *Instr) ReadsFlags() bool { return opTable[in.Op].Flags&FlagsRead != 0 }

// RegUses appends to dst the registers read by the instruction and returns
// the extended slice: its operand registers, then the registers it reads
// implicitly (SP for push/pop/call/ret, which dereference it).
func (in *Instr) RegUses(dst []Register) []Register {
	o := &opTable[in.Op]
	return o.implUses.append(in.appendRoles(dst, o.uses))
}

// RegDefs appends to dst the registers written by the instruction and
// returns the extended slice.
func (in *Instr) RegDefs(dst []Register) []Register {
	o := &opTable[in.Op]
	return o.implDefs.append(in.appendRoles(dst, o.def))
}

// itoa is a minimal integer formatter so this leaf package avoids importing
// strconv (keeps the decode hot path dependency-free).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
