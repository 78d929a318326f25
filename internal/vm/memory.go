// Package vm implements the JVA machine: a cycle-accounting interpreter with
// a flat paged address space, syscalls and extensible service traps. It is
// the reproduction's substitute for the paper's hardware testbed: every
// performance number in the evaluation is a ratio of weighted cycle counts
// measured on this machine, so instrumentation overhead emerges from real
// executed instructions rather than assumed constants.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AddrLimit is the exclusive upper bound of the address space (2 GiB). The
// canonical layout in package isa places all segments below this.
const AddrLimit uint64 = 0x8000_0000

const (
	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift
	numPages  = AddrLimit >> pageShift
)

// Fault is a machine fault (bad memory access, undecodable fetch, division
// by zero, stack overflow).
type Fault struct {
	PC   uint64
	Addr uint64
	Kind string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault %s at pc=%#x addr=%#x", f.Kind, f.PC, f.Addr)
}

// FaultBudget is the Kind of the fault a run raises when it exhausts
// MaxInstrs.
const FaultBudget = "instruction budget exhausted"

// IsBudget reports whether err is, or wraps, an instruction-budget fault.
func IsBudget(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Kind == FaultBudget
}

// Memory is the flat paged address space. Pages are allocated on first
// write and zero-filled; reading a page never written reads zeros without
// allocating it, so a program that only probes memory costs no host memory.
// Accesses beyond AddrLimit fault. Like hardware, the memory itself enforces
// no object bounds — that is the sanitizers' job.
type Memory struct {
	pages [numPages]*[pageSize]byte
}

// zeroPage backs reads of pages never written. Nothing writes to it.
var zeroPage [pageSize]byte

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// readPage returns the page holding addr for reading.
func (m *Memory) readPage(addr uint64) (*[pageSize]byte, error) {
	if addr >= AddrLimit {
		return nil, outOfRange(addr)
	}
	if p := m.pages[(addr>>pageShift)&(numPages-1)]; p != nil {
		return p, nil
	}
	return &zeroPage, nil
}

// writePage returns the page holding addr for writing, allocating it on the
// first write.
func (m *Memory) writePage(addr uint64) (*[pageSize]byte, error) {
	if addr >= AddrLimit {
		return nil, outOfRange(addr)
	}
	idx := (addr >> pageShift) & (numPages - 1)
	p := m.pages[idx]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[idx] = p
	}
	return p, nil
}

func outOfRange(addr uint64) error {
	return &Fault{Addr: addr, Kind: "address out of range"}
}

// ReadB reads one byte.
func (m *Memory) ReadB(addr uint64) (byte, error) {
	p, err := m.readPage(addr)
	if err != nil {
		return 0, err
	}
	return p[addr&(pageSize-1)], nil
}

// WriteB writes one byte.
func (m *Memory) WriteB(addr uint64, v byte) error {
	p, err := m.writePage(addr)
	if err != nil {
		return err
	}
	p[addr&(pageSize-1)] = v
	return nil
}

// Read64 reads a little-endian 8-byte word.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if off := addr & (pageSize - 1); off <= pageSize-8 && addr < AddrLimit {
		if p := m.pages[(addr>>pageShift)&(numPages-1)]; p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8]), nil
		}
	}
	return m.read64(addr)
}

// read64 is Read64 for words that straddle a page, lie in a page never
// written, or lie out of range.
func (m *Memory) read64(addr uint64) (uint64, error) {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p, err := m.readPage(addr)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(p[off : off+8]), nil
	}
	var buf [8]byte
	if err := m.ReadBytes(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Write64 writes a little-endian 8-byte word.
func (m *Memory) Write64(addr uint64, v uint64) error {
	if off := addr & (pageSize - 1); off <= pageSize-8 && addr < AddrLimit {
		if p := m.pages[(addr>>pageShift)&(numPages-1)]; p != nil {
			binary.LittleEndian.PutUint64(p[off:off+8], v)
			return nil
		}
	}
	return m.write64(addr, v)
}

// write64 is Write64 for words that straddle a page, lie in a page never
// written, or lie out of range.
func (m *Memory) write64(addr uint64, v uint64) error {
	off := addr & (pageSize - 1)
	if off <= pageSize-8 {
		p, err := m.writePage(addr)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(p[off:off+8], v)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.WriteBytes(addr, buf[:])
}

// Read32 reads a little-endian 4-byte word.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p, err := m.readPage(addr)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(p[off : off+4]), nil
	}
	var buf [4]byte
	if err := m.ReadBytes(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// ReadBytes fills buf from memory starting at addr.
func (m *Memory) ReadBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		p, err := m.readPage(addr)
		if err != nil {
			return err
		}
		off := addr & (pageSize - 1)
		n := copy(buf, p[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes copies buf into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		p, err := m.writePage(addr)
		if err != nil {
			return err
		}
		off := addr & (pageSize - 1)
		n := copy(p[off:], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.ReadB(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out), nil
}
