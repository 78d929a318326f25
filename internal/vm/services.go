package vm

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Allocator is the default program heap allocator service, backing
// TrapMalloc/TrapFree. It is a first-fit free-list allocator over the heap
// segment. In the paper's environment this is libc malloc; security tools
// interpose on it (as ASan does with LD_PRELOAD) by re-registering the trap
// handlers with their own allocator.
type Allocator struct {
	next  uint64
	limit uint64
	// free lists by size class would be overkill; keep a sorted free list.
	free []allocBlock
	// Live maps each allocated base to its size (used by tools and tests
	// to audit non-overlap).
	Live map[uint64]uint64
}

type allocBlock struct{ base, size uint64 }

// NewAllocator returns an allocator over [base, limit).
func NewAllocator(base, limit uint64) *Allocator {
	return &Allocator{next: base, limit: limit, Live: map[uint64]uint64{}}
}

// Alloc returns the base of a fresh block of the given size (16-byte
// aligned), or 0 if the heap is exhausted or the size is too large to
// round.
func (a *Allocator) Alloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	size = (size + 15) &^ 15
	if size == 0 {
		return 0 // the rounding overflowed
	}
	for i, b := range a.free {
		if b.size >= size {
			a.free = append(a.free[:i], a.free[i+1:]...)
			if b.size > size {
				a.free = append(a.free, allocBlock{b.base + size, b.size - size})
			}
			a.Live[b.base] = size
			return b.base
		}
	}
	if end := a.next + size; end < a.next || end > a.limit {
		return 0
	}
	base := a.next
	a.next += size
	a.Live[base] = size
	return base
}

// Free releases the block at base. Freeing an unknown base is ignored
// (tools that need double-free detection interpose their own allocator).
func (a *Allocator) Free(base uint64) {
	size, ok := a.Live[base]
	if !ok {
		return
	}
	delete(a.Live, base)
	a.free = append(a.free, allocBlock{base, size})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].base < a.free[j].base })
}

// InstallDefaultServices registers the baseline trap handlers: the program
// heap allocator and the debug output traps. It returns the allocator so
// callers (and interposing tools) can inspect it.
func (m *Machine) InstallDefaultServices() *Allocator {
	alloc := NewAllocator(isa.LayoutHeapBase, isa.LayoutHeapLimit)
	m.HandleTrap(isa.TrapMalloc, func(m *Machine) error {
		m.Regs[isa.R0] = alloc.Alloc(m.Regs[isa.R1])
		return nil
	})
	m.HandleTrap(isa.TrapFree, func(m *Machine) error {
		alloc.Free(m.Regs[isa.R1])
		return nil
	})
	m.HandleTrap(isa.TrapPuts, func(m *Machine) error {
		return m.Mem.Stream(m.Out, m.Regs[isa.R1], m.Regs[isa.R2])
	})
	m.HandleTrap(isa.TrapPutI, func(m *Machine) error {
		if m.Out != nil {
			fmt.Fprintf(m.Out, "%d\n", int64(m.Regs[isa.R1]))
		}
		return nil
	})
	return alloc
}
