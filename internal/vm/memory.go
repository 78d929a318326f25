// Package vm implements the JVA machine: a cycle-accounting interpreter with
// a lazily paged address space, syscalls and extensible service traps. It is
// the reproduction's substitute for the paper's hardware testbed: every
// performance number in the evaluation is a ratio of weighted cycle counts
// measured on this machine, so instrumentation overhead emerges from real
// executed instructions rather than assumed constants.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
)

// AddrLimit is the exclusive upper bound of the address space (2 GiB). The
// canonical layout in package isa places all segments below this.
const AddrLimit = isa.LayoutAddrLimit

const (
	pageShift = 12 // 4 KiB pages
	pageSize  = 1 << pageShift
	dirShift  = 20 // 1 MiB per directory entry
	dirSize   = AddrLimit >> dirShift
	tableSize = 1 << (dirShift - pageShift) // pages per directory entry
)

type (
	page      [pageSize]byte
	pageTable [tableSize]*page
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

// Memory is the paged address space: a 2,048-entry directory (16 KiB, one
// entry per 1 MiB) of lazily allocated 256-entry page tables (2 KiB each) of
// 4 KiB pages. A page, and the table holding it, is allocated zero-filled on
// the first write to it. A read of memory never written returns zeros from
// a shared zero page and allocates nothing, not even a table, so a sparse
// shadow region costs only the pages a run actually stores to. Accesses at
// or beyond AddrLimit fault. Like hardware, the memory itself enforces no
// object bounds — that is the sanitizers' job.
type Memory struct {
	dir [dirSize]*pageTable
}

// zeroPage backs reads of pages never written. Nothing writes to it.
var zeroPage page

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// lookup returns the page holding in-range addr, or nil if it was never
// written.
func (m *Memory) lookup(addr uint64) *page {
	if t := m.dir[(addr>>dirShift)&(dirSize-1)]; t != nil {
		return t[(addr>>pageShift)&(tableSize-1)]
	}
	return nil
}

// readPage returns the page holding in-range addr for reading.
func (m *Memory) readPage(addr uint64) *page {
	if p := m.lookup(addr); p != nil {
		return p
	}
	return &zeroPage
}

// writePage returns the page holding in-range addr for writing, allocating
// it, and its table, on the first write.
func (m *Memory) writePage(addr uint64) *page {
	t := &m.dir[(addr>>dirShift)&(dirSize-1)]
	if *t == nil {
		*t = new(pageTable)
	}
	p := &(*t)[(addr>>pageShift)&(tableSize-1)]
	if *p == nil {
		*p = new(page)
	}
	return *p
}

func outOfRange(addr uint64) error {
	return &Fault{Addr: addr, Kind: "address out of range"}
}

// ReadB reads one byte.
func (m *Memory) ReadB(addr uint64) (byte, error) {
	if addr >= AddrLimit {
		return 0, outOfRange(addr)
	}
	return m.readPage(addr)[addr&(pageSize-1)], nil
}

// WriteB writes one byte.
func (m *Memory) WriteB(addr uint64, v byte) error {
	if addr >= AddrLimit {
		return outOfRange(addr)
	}
	m.writePage(addr)[addr&(pageSize-1)] = v
	return nil
}

// Read64 reads a little-endian 8-byte word.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if off := addr & (pageSize - 1); off <= pageSize-8 && addr < AddrLimit {
		if p := m.lookup(addr); p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8]), nil
		}
	}
	return m.read64(addr)
}

// read64 is Read64 for words that straddle a page, lie in a page never
// written, or lie out of range.
func (m *Memory) read64(addr uint64) (uint64, error) {
	off := addr & (pageSize - 1)
	switch {
	case addr > AddrLimit-8:
		// The word reaches AddrLimit: fault at its first byte out of
		// range, as ReadBytes does.
		return 0, outOfRange(max(addr, AddrLimit))
	case off <= pageSize-8:
		return 0, nil // Read64 missed the page: it was never written
	}
	// The word straddles two pages: its low n bits are the top of the
	// last word of the first page, the rest the bottom of the next page.
	n := (pageSize - off) * 8
	lo := binary.LittleEndian.Uint64(m.readPage(addr)[pageSize-8:])
	hi := binary.LittleEndian.Uint64(m.readPage(addr + pageSize - off)[:8])
	return lo>>(64-n) | hi<<n, nil
}

// Write64 writes a little-endian 8-byte word.
func (m *Memory) Write64(addr uint64, v uint64) error {
	if off := addr & (pageSize - 1); off <= pageSize-8 && addr < AddrLimit {
		if p := m.lookup(addr); p != nil {
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
	switch {
	case addr > AddrLimit-8:
		// The word reaches AddrLimit: WriteBytes stores the bytes below
		// it, then faults.
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		return m.WriteBytes(addr, buf[:])
	case off <= pageSize-8:
		binary.LittleEndian.PutUint64(m.writePage(addr)[off:off+8], v)
		return nil
	}
	// The word straddles two pages: merge its low n bits into the top of
	// the first page's last word, the rest into the next page's first.
	n := (pageSize - off) * 8
	keep := uint64(1)<<(64-n) - 1
	lo := m.writePage(addr)[pageSize-8:]
	binary.LittleEndian.PutUint64(lo, binary.LittleEndian.Uint64(lo)&keep|v<<(64-n))
	hi := m.writePage(addr + pageSize - off)[:8]
	binary.LittleEndian.PutUint64(hi, binary.LittleEndian.Uint64(hi)&^keep|v>>n)
	return nil
}

// Read32 reads a little-endian 4-byte word.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	if off := addr & (pageSize - 1); off <= pageSize-4 && addr < AddrLimit {
		return binary.LittleEndian.Uint32(m.readPage(addr)[off : off+4]), nil
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
		if addr >= AddrLimit {
			return outOfRange(addr)
		}
		n := copy(buf, m.readPage(addr)[addr&(pageSize-1):])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes copies buf into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		if addr >= AddrLimit {
			return outOfRange(addr)
		}
		n := copy(m.writePage(addr)[addr&(pageSize-1):], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Stream writes the n bytes at addr to w a page at a time, so a
// guest-chosen length never sizes a host buffer. The whole range is checked
// before anything is written: a range extending past AddrLimit, or wrapping,
// faults as ReadBytes would, at max(addr, AddrLimit); an empty range never
// faults, as with ReadBytes. A nil w only checks the range; a write error
// from w ends the stream early.
func (m *Memory) Stream(w io.Writer, addr, n uint64) error {
	if n == 0 {
		return nil
	}
	if addr >= AddrLimit || n > AddrLimit-addr {
		return outOfRange(max(addr, AddrLimit))
	}
	for w != nil && n > 0 {
		off := addr & (pageSize - 1)
		k := min(n, pageSize-off)
		if _, err := w.Write(m.readPage(addr)[off : off+k]); err != nil {
			break
		}
		addr += k
		n -= k
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
