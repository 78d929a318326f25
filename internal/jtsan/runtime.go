// Package jtsan implements JTSan, the hybrid binary temporal-memory-safety
// sanitizer of the Janitizer tool family: a quarantine-and-generation
// allocator wrapper over the module allocator service (each allocation gets
// a generation tag in a side table keyed by chunk base; free bumps the
// generation and parks the chunk in a bounded FIFO quarantine delaying
// reuse), a per-byte freed bitmap driving inline fast-path generation
// checks on memory accesses, double-free detection as a generation
// mismatch at free time, proof-carrying elision of accesses whose pointer
// provably cannot refer to a freed chunk (vsa no-escape claims), and a
// conservative dynamic-only fallback for code never seen statically.
package jtsan

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/shadow"
	"repro/internal/vm"
)

// Generation-shadow encoding: a shadow.Bitmap at LayoutGenShadowBase, so
// application address a maps to shadow byte LayoutGenShadowBase + a/8, bit
// a%8. A SET bit means the byte belongs to a freed (quarantined) heap
// chunk, so the zero-filled initial shadow marks everything — stack,
// globals, live heap — temporally live and the inline fast path needs no
// heap-range test at all. The generation numbers themselves live in a
// host-side table keyed by chunk base: the bitmap answers "is this byte
// freed right now", the table answers "which incarnation" for diagnostics
// and double-free detection.

// Violation is one detected temporal-safety violation.
type Violation struct {
	// PC is the application address of the instrumented access (or of the
	// free trap for free-time violations).
	PC uint64
	// Addr is the faulting application address (the accessed byte, or the
	// freed pointer).
	Addr uint64
	// Width is the access width in bytes (0 for free-time violations).
	Width int
	// Kind is "use-after-free", "double-free" or "invalid-free".
	Kind string
	// Object is the base address of the quarantined chunk the access
	// refers to (0 when no chunk is attributable).
	Object uint64
	// Gen is the chunk's current generation (the number of frees it has
	// seen) at report time.
	Gen uint16
}

func (v Violation) String() string {
	if v.Width == 0 {
		return fmt.Sprintf("jtsan: %s: free(%#x) (pc %#x, gen %d)",
			v.Kind, v.Addr, v.PC, v.Gen)
	}
	return fmt.Sprintf("jtsan: %s: %d-byte access at %#x (pc %#x, chunk %#x, gen %d)",
		v.Kind, v.Width, v.Addr, v.PC, v.Object, v.Gen)
}

// Fault is the error that stops a run halting on v.
func (v Violation) Fault() *vm.Fault {
	return &vm.Fault{PC: v.PC, Addr: v.Addr, Kind: "jtsan: " + v.Kind}
}

// Report accumulates violations during a run.
type Report = shadow.Log[Violation]

// Trap families. A generation-check code encodes the register holding the
// application address and the access width; the bases live above JMSan's
// definedness families (400..487).
const (
	// GenCheckTraps: suspicious access, precise freed test and report —
	// exported for the Valgrind-style checker, whose clean-call model traps
	// unconditionally and lets the handler decide.
	GenCheckTraps shadow.Family = 500
	// trapQuarTick: allocator event, charge quarantine model cost.
	trapQuarTick = 540
)

// defaultQuarantineChunks is the bounded FIFO quarantine capacity: how many
// freed chunks are parked (still trapping) before the oldest becomes
// reusable again.
const defaultQuarantineChunks = 128

// tsanAllocator is the quarantine-and-generation wrapper interposed over
// whatever allocator service is already installed (the VM default, or
// JASan's redzone allocator in combined configurations — MultiTool runs
// RuntimeInit in tool order, so JTSan's wrapper nests outermost).
type tsanAllocator struct {
	freed                shadow.Bitmap
	prevMalloc, prevFree vm.TrapHandler
	rep                  *Report
	// live maps a live chunk's user base to its user size.
	live map[uint64]uint64
	// gens maps a chunk base to its generation: the number of frees the
	// base has seen. The counter is 16-bit and wraps; the freed bitmap, not
	// the counter, carries the "is it freed" fact, so wraparound only
	// recycles diagnostic labels.
	gens map[uint64]uint16
	// quarantine is the FIFO of freed-but-unreleased chunks.
	quarantine []quarChunk
	maxQuar    int
	// pendingCost accumulates the model cycles of generation-shadow
	// maintenance since the last quarantine tick; the tick trap drains it
	// so the cost lands in the CCQuarantine cost center instead of CCApp.
	pendingCost uint64
}

type quarChunk struct{ base, size uint64 }

// ChunkFor returns the base and generation of the quarantined chunk
// containing addr.
func (a *tsanAllocator) ChunkFor(addr uint64) (uint64, uint16, bool) {
	for _, q := range a.quarantine {
		if addr >= q.base && addr < q.base+q.size {
			return q.base, a.gens[q.base], true
		}
	}
	return 0, 0, false
}

// onMalloc forwards to the previous allocator, then registers the fresh
// chunk as live: its generation-shadow bits are cleared (the base may be a
// recycled quarantine eviction) and its size recorded.
func (a *tsanAllocator) onMalloc(m *vm.Machine) error {
	size := m.Regs[isa.R1]
	if a.prevMalloc != nil {
		if err := a.prevMalloc(m); err != nil {
			return err
		}
	}
	base := m.Regs[isa.R0]
	if base == 0 {
		return nil
	}
	if size == 0 {
		size = 1
	}
	a.live[base] = size
	a.freed.Set(base, size, false)
	a.pendingCost += 4 + size/8
	return nil
}

// onFree implements free with generation bump and quarantine: a live chunk
// has its generation bumped, its freed bits set and is parked in the FIFO
// *without* forwarding — the underlying allocator only sees the free when
// the chunk is evicted at quarantine capacity, which is exactly the reuse
// delay that catches dangling accesses. A pointer that is not a live chunk
// base is a generation mismatch at free time: double-free when the base has
// been freed before, invalid-free when it was never issued.
func (a *tsanAllocator) onFree(m *vm.Machine) error {
	ptr := m.Regs[isa.R1]
	if ptr == 0 {
		return nil // free(NULL) is a no-op
	}
	size, ok := a.live[ptr]
	if !ok {
		kind := "invalid-free"
		if _, freedBefore := a.gens[ptr]; freedBefore {
			kind = "double-free"
		}
		return a.rep.Add(Violation{
			PC: m.TrapPC, Addr: ptr, Kind: kind,
			Object: ptr, Gen: a.gens[ptr],
		})
	}
	delete(a.live, ptr)
	a.gens[ptr]++ // uint16: wraps past 1<<16 by design
	a.freed.Set(ptr, size, true)
	a.quarantine = append(a.quarantine, quarChunk{ptr, size})
	a.pendingCost += 8 + size/8
	if len(a.quarantine) > a.maxQuar {
		old := a.quarantine[0]
		a.quarantine = a.quarantine[1:]
		// The evicted chunk becomes reusable: its freed bits are cleared
		// (it stops trapping) and the deferred free finally reaches the
		// underlying allocator.
		a.freed.Set(old.base, old.size, false)
		a.pendingCost += old.size / 8
		if a.prevFree != nil {
			saved := m.Regs[isa.R1]
			m.Regs[isa.R1] = old.base
			err := a.prevFree(m)
			m.Regs[isa.R1] = saved
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Chunks locates quarantined chunks for report attribution.
type Chunks interface {
	// ChunkFor returns the base and generation of the quarantined chunk
	// containing addr.
	ChunkFor(addr uint64) (uint64, uint16, bool)
}

// InstallRuntimeOn wires the JTSan temporal runtime into a machine outside
// the Janitizer core — used by baseline tools sharing the generation-shadow
// encoding (the Valgrind-style checker's temporal mode). The returned
// Chunks maps addresses to quarantined chunks.
func InstallRuntimeOn(m *vm.Machine, rep *Report) Chunks {
	return installRuntime(m, rep)
}

// installRuntime registers the generation-check trap family, the quarantine
// tick, and the allocator wrapper. The wrapper chains whatever
// TrapMalloc/TrapFree handlers are already installed.
func installRuntime(m *vm.Machine, rep *Report) *tsanAllocator {
	alloc := &tsanAllocator{
		freed:      shadow.Bitmap{M: m, Base: isa.LayoutGenShadowBase},
		prevMalloc: m.TrapHandlerFor(isa.TrapMalloc),
		prevFree:   m.TrapHandlerFor(isa.TrapFree),
		rep:        rep,
		live:       map[uint64]uint64{},
		gens:       map[uint64]uint16{},
		maxQuar:    defaultQuarantineChunks,
	}
	GenCheckTraps.Install(m, func(m *vm.Machine, addr uint64, width int) error {
		bad, freed := alloc.freed.FirstSet(addr, uint64(width))
		if !freed {
			return nil // window false positive: neighbour bytes only
		}
		v := Violation{PC: m.TrapPC, Addr: bad, Width: width,
			Kind: "use-after-free"}
		v.Object, v.Gen, _ = alloc.ChunkFor(bad)
		return rep.Add(v)
	})
	m.HandleTrap(trapQuarTick, func(m *vm.Machine) error {
		m.AddCycles(alloc.pendingCost)
		alloc.pendingCost = 0
		return nil
	})
	m.HandleTrap(isa.TrapMalloc, alloc.onMalloc)
	m.HandleTrap(isa.TrapFree, alloc.onFree)
	return alloc
}
