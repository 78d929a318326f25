package isa

import "math/bits"

// The opcode table: one row per opcode, the only list of what the toolchain
// and the analyses know about each opcode — its mnemonic and encoding, the
// registers and flags it reads and writes, the memory it touches and how it
// transfers control. What an opcode computes is defined once, by the vm's
// run switch; a test runs every row against it.

// OpInfo is one row of the opcode table.
type OpInfo struct {
	Name  string     // mnemonic
	Form  Form       // encoding form, which also fixes the operand syntax
	Flags FlagAccess // condition flags read and written
	Mem   MemDir     // direction of the memory access, if any
	Width uint8      // bytes the memory access reads or writes
	// Addr is how the instruction forms an address: the address of its
	// memory access, or, for lea, the address it computes.
	Addr Addressing
	Flow Flow // control transfer

	uses, def          roles   // operand fields read (in RegUses order) and written
	implUses, implDefs regBits // registers read and written whatever the operands
}

// FlagAccess says whether an opcode reads or writes the condition flags.
type FlagAccess uint8

const (
	FlagsRead FlagAccess = 1 << iota
	FlagsWritten
)

// MemDir is the direction of an opcode's memory access.
type MemDir uint8

const (
	MemNone MemDir = iota
	MemLoad
	MemStore
)

// Addressing is how an opcode forms an address. AddrBase, AddrIndex8 and
// AddrIndex1, in that order, are the computed addresses (see MemAddr).
type Addressing uint8

const (
	AddrNone   Addressing = iota
	AddrBase              // [rb+disp]
	AddrIndex8            // [rb+ri*8+disp]
	AddrIndex1            // [rb+ri+disp]
	AddrPC                // [pc+disp], pc the next instruction's address
	AddrStack             // [sp-8] for a push, [sp] for a pop
)

// Indexed reports whether the address has an index register.
func (a Addressing) Indexed() bool { return a == AddrIndex8 || a == AddrIndex1 }

// Flow is the kind of control transfer an opcode makes.
type Flow uint8

const (
	FlowNone         Flow = iota
	FlowJump              // direct jump
	FlowCond              // conditional direct jump
	FlowIndirect          // jump through a register
	FlowCall              // direct call
	FlowCallIndirect      // call through a register
	FlowRet               // return
	FlowHalt              // halt
)

// roles lists the operand fields an opcode reads or writes, two bits a
// field, the first field in the low bits.
type roles uint8

const (
	rd roles = 1 // the Rd field
	rb roles = 2 // the Rb field
	ri roles = 3 // the Ri field

	rdRb   = rd | rb<<2
	rbRd   = rb | rd<<2
	rbRi   = rb | ri<<2
	rbRiRd = rb | ri<<2 | rd<<4
)

// regBits is a set of registers, bit r for register r.
type regBits uint16

const (
	spBit   regBits = 1 << SP
	r0Bit   regBits = 1 << R0
	argBits regBits = 1<<R1 | 1<<R2 | 1<<R3 | 1<<R4 | 1<<R5
	r11Bit  regBits = 1 << R11 // the import index of the lazy resolver's trap
)

// appendRoles appends the registers in the operand fields rs names.
func (in *Instr) appendRoles(dst []Register, rs roles) []Register {
	fields := [4]Register{rd: in.Rd, rb: in.Rb, ri: in.Ri}
	for ; rs != 0; rs >>= 2 {
		dst = append(dst, fields[rs&3])
	}
	return dst
}

// append appends the registers of s in ascending order.
func (s regBits) append(dst []Register) []Register {
	for ; s != 0; s &= s - 1 {
		dst = append(dst, Register(bits.TrailingZeros16(uint16(s))))
	}
	return dst
}

// alu is the row of a flag-setting ALU opcode writing rd from uses.
func alu(name string, f Form, uses roles) OpInfo {
	return OpInfo{Name: name, Form: f, Flags: FlagsWritten, uses: uses, def: rd}
}

// jcc is the row of a conditional branch.
func jcc(name string) OpInfo {
	return OpInfo{Name: name, Form: FormBr, Flags: FlagsRead, Flow: FlowCond}
}

// opTable holds a row for every opcode; bytes that are no opcode have the
// zero row.
var opTable = [256]OpInfo{
	OpInvalid: {Name: "invalid"},

	OpMovRI: {Name: "mov", Form: FormRI64, def: rd},
	OpMovRR: {Name: "mov", Form: FormRR, uses: rb, def: rd},
	OpLdQ:   {Name: "ldq", Form: FormMem, uses: rb, def: rd, Mem: MemLoad, Width: 8, Addr: AddrBase},
	OpStQ:   {Name: "stq", Form: FormMem, uses: rbRd, Mem: MemStore, Width: 8, Addr: AddrBase},
	OpLdB:   {Name: "ldb", Form: FormMem, uses: rb, def: rd, Mem: MemLoad, Width: 1, Addr: AddrBase},
	OpStB:   {Name: "stb", Form: FormMem, uses: rbRd, Mem: MemStore, Width: 1, Addr: AddrBase},
	OpLdXQ:  {Name: "ldxq", Form: FormMemX, uses: rbRi, def: rd, Mem: MemLoad, Width: 8, Addr: AddrIndex8},
	OpStXQ:  {Name: "stxq", Form: FormMemX, uses: rbRiRd, Mem: MemStore, Width: 8, Addr: AddrIndex8},
	OpLdXB:  {Name: "ldxb", Form: FormMemX, uses: rbRi, def: rd, Mem: MemLoad, Width: 1, Addr: AddrIndex1},
	OpStXB:  {Name: "stxb", Form: FormMemX, uses: rbRiRd, Mem: MemStore, Width: 1, Addr: AddrIndex1},
	OpLea:   {Name: "lea", Form: FormMem, uses: rb, def: rd, Addr: AddrBase},
	OpLeaX:  {Name: "leax", Form: FormMemX, uses: rbRi, def: rd, Addr: AddrIndex8},
	OpLeaXB: {Name: "leaxb", Form: FormMemX, uses: rbRi, def: rd, Addr: AddrIndex1},
	OpLdPC:  {Name: "ldpc", Form: FormPC, def: rd, Mem: MemLoad, Width: 8, Addr: AddrPC},
	OpLeaPC: {Name: "leapc", Form: FormPC, def: rd, Addr: AddrPC},
	OpLdG:   {Name: "ldg", Form: FormR, def: rd},

	OpAddRR: alu("add", FormRR, rdRb),
	OpSubRR: alu("sub", FormRR, rdRb),
	OpMulRR: alu("mul", FormRR, rdRb),
	OpDivRR: alu("div", FormRR, rdRb),
	OpRemRR: alu("rem", FormRR, rdRb),
	OpAndRR: alu("and", FormRR, rdRb),
	OpOrRR:  alu("or", FormRR, rdRb),
	OpXorRR: alu("xor", FormRR, rdRb),
	OpShlRR: alu("shl", FormRR, rdRb),
	OpShrRR: alu("shr", FormRR, rdRb),
	OpAddRI: alu("add", FormRI32, rd),
	OpSubRI: alu("sub", FormRI32, rd),
	OpMulRI: alu("mul", FormRI32, rd),
	OpAndRI: alu("and", FormRI32, rd),
	OpOrRI:  alu("or", FormRI32, rd),
	OpXorRI: alu("xor", FormRI32, rd),
	OpShlRI: alu("shl", FormRI32, rd),
	OpShrRI: alu("shr", FormRI32, rd),
	OpNot:   alu("not", FormR, rd),
	OpNeg:   alu("neg", FormR, rd),

	OpCmpRR:  {Name: "cmp", Form: FormRR, Flags: FlagsWritten, uses: rdRb},
	OpCmpRI:  {Name: "cmp", Form: FormRI32, Flags: FlagsWritten, uses: rd},
	OpTestRR: {Name: "test", Form: FormRR, Flags: FlagsWritten, uses: rdRb},

	// Stack accesses move sp by 8.
	OpPush:  {Name: "push", Form: FormR, uses: rd, Mem: MemStore, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},
	OpPop:   {Name: "pop", Form: FormR, def: rd, Mem: MemLoad, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},
	OpPushF: {Name: "pushf", Flags: FlagsRead, Mem: MemStore, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},
	OpPopF:  {Name: "popf", Flags: FlagsWritten, Mem: MemLoad, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},
	OpCall:  {Name: "call", Form: FormBr, Flow: FlowCall, Mem: MemStore, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},
	OpCallI: {Name: "calli", Form: FormR, Flow: FlowCallIndirect, uses: rd, Mem: MemStore, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},
	OpRet:   {Name: "ret", Flow: FlowRet, Mem: MemLoad, Width: 8, Addr: AddrStack, implUses: spBit, implDefs: spBit},

	OpJmp:  {Name: "jmp", Form: FormBr, Flow: FlowJump},
	OpJmpI: {Name: "jmpi", Form: FormR, Flow: FlowIndirect, uses: rd},
	OpJe:   jcc("je"),
	OpJne:  jcc("jne"),
	OpJl:   jcc("jl"),
	OpJle:  jcc("jle"),
	OpJg:   jcc("jg"),
	OpJge:  jcc("jge"),
	OpJb:   jcc("jb"),
	OpJae:  jcc("jae"),

	OpSyscall: {Name: "syscall", implUses: r0Bit | argBits, implDefs: r0Bit},
	OpTrap:    {Name: "trap", Form: FormImm, implUses: argBits | r11Bit, implDefs: r0Bit},
	OpNop:     {Name: "nop"},
	OpHlt:     {Name: "hlt", Flow: FlowHalt},
}

// Info returns the opcode's row of the table; a byte that is no opcode has
// the zero row.
func (o Op) Info() OpInfo { return opTable[o] }
