// Package jasan implements JASan, the hybrid binary AddressSanitizer of
// §4.1: full heap-object protection through redzones and shadow memory,
// coarse stack-frame protection through canary poisoning, inline (non-clean-
// call) shadow checks whose register/flag save-restore is minimised using
// precomputed liveness, SCEV-hoisted range checks, and a simpler dynamic-
// only fallback pass for code never seen statically.
package jasan

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/shadow"
	"repro/internal/vm"
)

// Shadow encoding (classic AddressSanitizer):
//
//	0        all eight bytes of the granule are addressable
//	1..7     only the first k bytes are addressable
//	>= 0xF0  poisoned (the specific value records why)
const (
	// ShadowHeapRedzone marks heap left/right redzones.
	ShadowHeapRedzone byte = 0xF9
	// ShadowFreed marks freed (quarantined) heap memory.
	ShadowFreed byte = 0xFD
	// ShadowCanary marks a poisoned stack-canary slot.
	ShadowCanary byte = 0xFA
)

// RedzoneSize is the size in bytes of heap redzones on each side.
const RedzoneSize = 16

// Violation is one detected memory-safety violation.
type Violation struct {
	// PC is the application address of the instrumented access.
	PC uint64
	// Addr is the faulting application address.
	Addr uint64
	// Width is the access width in bytes.
	Width int
	// Shadow is the shadow byte that triggered the report.
	Shadow byte
	// Kind classifies the violation from the shadow byte.
	Kind string
	// Object is the base address of the heap object the access relates to
	// (0 when the address maps to no live or quarantined object) — used
	// for memcheck-style per-object report deduplication.
	Object uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("jasan: %s: %d-byte access at %#x (pc %#x, shadow %#x)",
		v.Kind, v.Width, v.Addr, v.PC, v.Shadow)
}

// Fault is the error that stops a run halting on v.
func (v Violation) Fault() *vm.Fault {
	return &vm.Fault{PC: v.PC, Addr: v.Addr, Kind: "jasan: " + v.Kind}
}

// Report accumulates violations during a run.
type Report = shadow.Log[Violation]

func classifyShadow(s byte) string {
	switch s {
	case ShadowHeapRedzone:
		return "heap-buffer-overflow"
	case ShadowFreed:
		return "heap-use-after-free"
	case ShadowCanary:
		return "stack-canary-overwrite"
	}
	if s >= 1 && s <= 7 {
		return "partial-granule-overflow"
	}
	return "unknown-poison"
}

// shadowMem provides poison/unpoison over a machine's shadow region.
type shadowMem struct{ m *vm.Machine }

// poisonRange sets the shadow of [addr, addr+n) to value v. addr must be
// 8-aligned for exact semantics; n is rounded up to whole granules.
func (s shadowMem) poisonRange(addr, n uint64, v byte) {
	for a := addr; a < addr+n; a += 8 {
		s.m.Mem.WriteB(isa.ShadowAddr(a), v)
	}
}

// unpoisonObject marks [addr, addr+n) addressable, with the classic partial
// last-granule encoding.
func (s shadowMem) unpoisonObject(addr, n uint64) {
	full := n / 8 * 8
	for a := addr; a < addr+full; a += 8 {
		s.m.Mem.WriteB(isa.ShadowAddr(a), 0)
	}
	if rem := n % 8; rem != 0 {
		s.m.Mem.WriteB(isa.ShadowAddr(addr+full), byte(rem))
	}
}

// asanAllocator is the interposed heap allocator (the LD_PRELOAD-style
// allocator of §4.1): every object gets left and right redzones whose shadow
// is poisoned, freed objects are poisoned and quarantined.
type asanAllocator struct {
	inner      *vm.Allocator
	shadow     shadowMem
	quarantine []quarantined
	maxQuar    int
	// sizes tracks user sizes by user base address.
	sizes map[uint64]uint64
}

type quarantined struct{ base, userSize uint64 }

// ObjectFor returns the user base of the live or quarantined heap object
// whose redzone-extended extent contains addr.
func (a *asanAllocator) ObjectFor(addr uint64) (uint64, bool) {
	check := func(base, size uint64) bool {
		span := (size + 7) &^ 7
		return addr >= base-RedzoneSize && addr < base+span+RedzoneSize
	}
	for base, size := range a.sizes {
		if check(base, size) {
			return base, true
		}
	}
	for _, q := range a.quarantine {
		if check(q.base, q.userSize) {
			return q.base, true
		}
	}
	return 0, false
}

func newASanAllocator(m *vm.Machine) *asanAllocator {
	return &asanAllocator{
		inner:   vm.NewAllocator(isa.LayoutHeapBase, isa.LayoutHeapLimit),
		shadow:  shadowMem{m},
		maxQuar: 128,
		sizes:   map[uint64]uint64{},
	}
}

// malloc allocates size user bytes between poisoned redzones and returns the
// user base (0 when exhausted).
func (a *asanAllocator) malloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	userSpan := (size + 7) &^ 7
	total := RedzoneSize + userSpan + RedzoneSize
	raw := a.inner.Alloc(total)
	if raw == 0 {
		return 0
	}
	user := raw + RedzoneSize
	a.shadow.poisonRange(raw, RedzoneSize, ShadowHeapRedzone)
	a.shadow.unpoisonObject(user, size)
	a.shadow.poisonRange(user+userSpan, RedzoneSize, ShadowHeapRedzone)
	a.sizes[user] = size
	return user
}

// free poisons the object and quarantines it, delaying reuse.
func (a *asanAllocator) free(user uint64) {
	size, ok := a.sizes[user]
	if !ok {
		return // unknown/double free; the checker reports via shadow
	}
	delete(a.sizes, user)
	userSpan := (size + 7) &^ 7
	a.shadow.poisonRange(user, userSpan, ShadowFreed)
	a.quarantine = append(a.quarantine, quarantined{user, size})
	if len(a.quarantine) > a.maxQuar {
		old := a.quarantine[0]
		a.quarantine = a.quarantine[1:]
		span := (old.userSize + 7) &^ 7
		a.shadow.poisonRange(old.base, span, 0) // neutralise before reuse
		a.inner.Free(old.base - RedzoneSize)
	}
}

// reportTraps is the inline report trap family: the code encodes which
// register holds the faulting address and the access width.
const reportTraps shadow.Family = isa.TrapToolBase // 100

// HeapObjects locates heap objects for report attribution.
type HeapObjects interface {
	// ObjectFor returns the user base of the object whose redzone-extended
	// extent contains addr.
	ObjectFor(addr uint64) (uint64, bool)
}

// InstallRuntimeOn wires the JASan shadow/report/allocator runtime into a
// machine outside the Janitizer core — used by the baseline tools
// (Retrowrite's rewritten binaries and the Valgrind-style checker share this
// runtime library). The returned HeapObjects maps addresses to heap objects.
func InstallRuntimeOn(m *vm.Machine, rep *Report) HeapObjects {
	return installRuntime(m, rep)
}

// installRuntime wires the JASan runtime into a machine: the report trap
// family and the interposed allocator.
func installRuntime(m *vm.Machine, rep *Report) *asanAllocator {
	alloc := newASanAllocator(m)
	reportTraps.Install(m, func(m *vm.Machine, addr uint64, width int) error {
		sb, _ := m.Mem.ReadB(isa.ShadowAddr(addr))
		v := Violation{
			PC: m.TrapPC, Addr: addr, Width: width,
			Shadow: sb, Kind: classifyShadow(sb),
		}
		v.Object, _ = alloc.ObjectFor(addr)
		return rep.Add(v)
	})
	m.HandleTrap(isa.TrapMalloc, func(m *vm.Machine) error {
		m.Regs[isa.R0] = alloc.malloc(m.Regs[isa.R1])
		return nil
	})
	m.HandleTrap(isa.TrapFree, func(m *vm.Machine) error {
		alloc.free(m.Regs[isa.R1])
		return nil
	})
	return alloc
}
