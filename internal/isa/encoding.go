package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Form is an encoding form. Every opcode belongs to exactly one form, its
// row's, which fixes its encoded length. Lengths range from 1 to 10 bytes,
// so JVA is genuinely variable-length: decoding from a misaligned offset
// yields a different — and usually invalid — instruction stream, exactly
// like x86.
type Form uint8

const (
	FormNone Form = iota // op                          1 byte
	FormR                // op rd                       2 bytes
	FormRR               // op rd rb                    3 bytes
	FormRI64             // op rd imm64                 10 bytes
	FormRI32             // op rd imm32                 6 bytes
	FormMem              // op rd rb disp32             7 bytes
	FormMemX             // op rd rb ri disp32          8 bytes
	FormPC               // op rd disp32                6 bytes
	FormBr               // op disp32                   5 bytes
	FormImm              // op imm32                    5 bytes
)

var formSizes = [...]uint32{
	FormNone: 1,
	FormR:    2,
	FormRR:   3,
	FormRI64: 10,
	FormRI32: 6,
	FormMem:  7,
	FormMemX: 8,
	FormPC:   6,
	FormBr:   5,
	FormImm:  5,
}

// MaxInstrLen is the longest possible encoded instruction.
const MaxInstrLen = 10

// EncodedSize returns the encoded length in bytes of an instruction with
// the given opcode, or 0 if the opcode is invalid.
func EncodedSize(op Op) uint32 {
	if op == OpInvalid || int(op) >= NumOps {
		return 0
	}
	return formSizes[opTable[op].Form]
}

// Errors returned by Decode.
var (
	ErrBadOpcode   = errors.New("isa: invalid opcode")
	ErrTruncated   = errors.New("isa: truncated instruction")
	ErrBadRegister = errors.New("isa: register operand out of range")
)

// Encode appends the binary encoding of in to dst and returns the extended
// slice. It panics on an invalid opcode, since instructions are constructed
// by trusted code (assembler, compiler, instrumentation engines).
func Encode(dst []byte, in *Instr) []byte {
	if in.Op == OpInvalid || int(in.Op) >= NumOps {
		panic(fmt.Sprintf("isa.Encode: invalid opcode %d", in.Op))
	}
	dst = append(dst, byte(in.Op))
	switch opTable[in.Op].Form {
	case FormNone:
	case FormR:
		dst = append(dst, byte(in.Rd))
	case FormRR:
		dst = append(dst, byte(in.Rd), byte(in.Rb))
	case FormRI64:
		dst = append(dst, byte(in.Rd))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Imm))
	case FormRI32:
		dst = append(dst, byte(in.Rd))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm)))
	case FormMem:
		dst = append(dst, byte(in.Rd), byte(in.Rb))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	case FormMemX:
		dst = append(dst, byte(in.Rd), byte(in.Rb), byte(in.Ri))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	case FormPC:
		dst = append(dst, byte(in.Rd))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	case FormBr:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	case FormImm:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm)))
	}
	return dst
}

// Decode decodes one instruction from buf, recording addr as its address.
// It returns the decoded instruction; in.Size gives the number of bytes
// consumed. Register operands >= NumRegs and unknown opcodes are rejected,
// which is what makes scanning mid-instruction usually fail — the property
// static disassemblers rely on heuristically.
func Decode(buf []byte, addr uint64) (Instr, error) {
	var in Instr
	if len(buf) == 0 {
		return in, ErrTruncated
	}
	op := Op(buf[0])
	if op == OpInvalid || int(op) >= NumOps {
		return in, fmt.Errorf("%w: byte %#x at %#x", ErrBadOpcode, buf[0], addr)
	}
	f := opTable[op].Form
	size := formSizes[f]
	if uint32(len(buf)) < size {
		return in, fmt.Errorf("%w: need %d bytes at %#x, have %d",
			ErrTruncated, size, addr, len(buf))
	}
	in.Op = op
	in.Addr = addr
	in.Size = size
	switch f {
	case FormNone:
	case FormR:
		in.Rd = Register(buf[1])
	case FormRR:
		in.Rd, in.Rb = Register(buf[1]), Register(buf[2])
	case FormRI64:
		in.Rd = Register(buf[1])
		in.Imm = int64(binary.LittleEndian.Uint64(buf[2:]))
	case FormRI32:
		in.Rd = Register(buf[1])
		in.Imm = int64(int32(binary.LittleEndian.Uint32(buf[2:])))
	case FormMem:
		in.Rd, in.Rb = Register(buf[1]), Register(buf[2])
		in.Disp = int32(binary.LittleEndian.Uint32(buf[3:]))
	case FormMemX:
		in.Rd, in.Rb, in.Ri = Register(buf[1]), Register(buf[2]), Register(buf[3])
		in.Disp = int32(binary.LittleEndian.Uint32(buf[4:]))
	case FormPC:
		in.Rd = Register(buf[1])
		in.Disp = int32(binary.LittleEndian.Uint32(buf[2:]))
	case FormBr:
		in.Disp = int32(binary.LittleEndian.Uint32(buf[1:]))
	case FormImm:
		in.Imm = int64(int32(binary.LittleEndian.Uint32(buf[1:])))
	}
	if in.Rd >= NumRegs || in.Rb >= NumRegs || in.Ri >= NumRegs {
		return Instr{}, fmt.Errorf("%w: at %#x", ErrBadRegister, addr)
	}
	return in, nil
}

// DecodeAll decodes instructions from buf sequentially starting at base
// until the buffer is exhausted or an undecodable byte sequence is hit.
// It returns the decoded prefix and the first error, if any.
func DecodeAll(buf []byte, base uint64) ([]Instr, error) {
	var out []Instr
	off := uint64(0)
	for off < uint64(len(buf)) {
		in, err := Decode(buf[off:], base+off)
		if err != nil {
			return out, err
		}
		out = append(out, in)
		off += uint64(in.Size)
	}
	return out, nil
}
