package shadow

import (
	"repro/internal/isa"
	"repro/internal/vm"
)

// Bitmap is a one-bit-per-byte shadow: application address a maps to
// shadow byte Base + a/8, bit a%8. The zero-filled initial shadow means no
// bit is set anywhere. The bitmap covers application addresses below
// isa.LayoutShadowBase; tool-runtime regions at and above it are never
// marked or checked.
type Bitmap struct {
	M    *vm.Machine
	Base uint64
}

// Set sets (on) or clears the bit of every byte of [addr, addr+n), clamped
// to the covered range.
func (b Bitmap) Set(addr, n uint64, on bool) {
	if addr >= isa.LayoutShadowBase {
		return
	}
	end := addr + n
	if end > isa.LayoutShadowBase || end < addr {
		end = isa.LayoutShadowBase
	}
	for a := addr; a < end; {
		sa := b.Base + a/8
		if a%8 == 0 && a+8 <= end {
			if on {
				b.M.Mem.WriteB(sa, 0xff)
			} else {
				b.M.Mem.WriteB(sa, 0)
			}
			a += 8
			continue
		}
		v, _ := b.M.Mem.ReadB(sa)
		if on {
			v |= 1 << (a % 8)
		} else {
			v &^= 1 << (a % 8)
		}
		b.M.Mem.WriteB(sa, v)
		a++
	}
}

// FirstSet returns the address of the first byte in [addr, addr+n) whose
// bit is set, and whether one exists. This is the precise per-byte test
// the trap handlers run: the inline fast path only inspects whole shadow
// bytes (an 8- or 64-byte window), so a trap is a suspicion, confirmed or
// dismissed here.
func (b Bitmap) FirstSet(addr, n uint64) (uint64, bool) {
	if addr >= isa.LayoutShadowBase {
		return 0, false
	}
	for a := addr; a < addr+n; a++ {
		v, _ := b.M.Mem.ReadB(b.Base + a/8)
		if v&(1<<(a%8)) != 0 {
			return a, true
		}
	}
	return 0, false
}

// A Family is a block of trap codes, one per (address register, access
// width): base + reg, plus widthBit for 8-byte accesses. One handler
// family serves every liveness-dependent scratch choice.
type Family int64

const widthBit = 16

// Code returns the trap code for an access of width bytes whose address is
// in reg.
func (f Family) Code(reg isa.Register, width int) int64 {
	code := int64(f) + int64(reg)
	if width == 8 {
		code += widthBit
	}
	return code
}

// Install registers h for all NumRegs×{1,8} codes of the family; h
// receives the address the trapping register holds and the width.
func (f Family) Install(m *vm.Machine, h func(m *vm.Machine, addr uint64, width int) error) {
	for reg := isa.Register(0); reg < isa.NumRegs; reg++ {
		for _, width := range []int{1, 8} {
			m.HandleTrap(f.Code(reg, width), func(m *vm.Machine) error {
				return h(m, m.Regs[reg], width)
			})
		}
	}
}
