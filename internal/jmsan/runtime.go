// Package jmsan implements JMSan, the hybrid binary uninitialized-memory
// sanitizer of the Janitizer tool family: a per-byte definedness shadow
// (writes define, fresh heap objects and new stack frames are undefined),
// inline shadow checks on loads whose values reach a definedness sink,
// sink-reachability filtering from the static def-use taint lattice
// (internal/analysis), proof-carrying elision of definitely-initialized
// loads, and a conservative dynamic-only fallback for code never seen
// statically.
package jmsan

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/shadow"
	"repro/internal/vm"
)

// Definedness shadow encoding: a shadow.Bitmap at LayoutDefShadowBase, so
// application address a maps to shadow byte LayoutDefShadowBase + a/8, bit
// a%8. A SET bit means the byte is UNDEFINED, so the zero-filled initial
// shadow marks everything (globals, the startup stack) defined and only
// explicit events — heap allocation, frame setup — introduce undefined
// bytes.

// Violation is one detected read of undefined memory.
type Violation struct {
	// PC is the application address of the instrumented load.
	PC uint64
	// Addr is the application address of the first undefined byte read.
	Addr uint64
	// Width is the access width in bytes.
	Width int
}

func (v Violation) String() string {
	return fmt.Sprintf("jmsan: uninitialized-read: %d-byte load touches undefined byte %#x (pc %#x)",
		v.Width, v.Addr, v.PC)
}

// Fault is the error that stops a run halting on v.
func (v Violation) Fault() *vm.Fault {
	return &vm.Fault{PC: v.PC, Addr: v.Addr, Kind: "jmsan: uninitialized-read"}
}

// Report accumulates violations during a run.
type Report = shadow.Log[Violation]

// Trap families. A store or load family code encodes the register holding
// the application address and the access width; the bases live above
// JASan's report family (100..131) and JCFI's transfer families (200..231).
// Both families are exported for the Valgrind-style checker, which shares
// this runtime.
const (
	// DefStoreTraps: store executed, mark [addr, addr+width) defined.
	DefStoreTraps shadow.Family = 400
	// DefLoadTraps: suspicious load, precise per-byte check and report.
	DefLoadTraps shadow.Family = 440
	// trapFrameUndef: frame allocated, mark the new frame undefined.
	trapFrameUndef = 480
)

// InstallRuntimeOn wires the JMSan definedness runtime into a machine
// outside the Janitizer core — used by baseline tools sharing the shadow
// encoding. frameSizes maps FRAME_UNDEF trap PCs to frame sizes; it may be
// nil for tools that never emit the frame trap.
func InstallRuntimeOn(m *vm.Machine, rep *Report, frameSizes map[uint64]uint64) {
	installRuntime(m, rep, frameSizes)
}

// installRuntime registers the definedness trap families and interposes the
// heap allocator so fresh objects start undefined. The allocator wrapper
// chains whatever TrapMalloc handler is already installed (the VM default
// allocator, or JASan's redzone allocator in combined configurations).
func installRuntime(m *vm.Machine, rep *Report, frameSizes map[uint64]uint64) {
	undef := shadow.Bitmap{M: m, Base: isa.LayoutDefShadowBase}
	DefStoreTraps.Install(m, func(_ *vm.Machine, addr uint64, width int) error {
		undef.Set(addr, uint64(width), false)
		return nil
	})
	DefLoadTraps.Install(m, func(m *vm.Machine, addr uint64, width int) error {
		bad, ok := undef.FirstSet(addr, uint64(width))
		if !ok {
			return nil // window false positive: neighbour bytes only
		}
		return rep.Add(Violation{PC: m.TrapPC, Addr: bad, Width: width})
	})
	m.HandleTrap(trapFrameUndef, func(m *vm.Machine) error {
		if size := frameSizes[m.TrapPC]; size > 0 {
			undef.Set(m.Regs[isa.SP], size, true)
		}
		return nil
	})
	prevMalloc := m.TrapHandlerFor(isa.TrapMalloc)
	m.HandleTrap(isa.TrapMalloc, func(m *vm.Machine) error {
		size := m.Regs[isa.R1]
		if prevMalloc != nil {
			if err := prevMalloc(m); err != nil {
				return err
			}
		}
		if base := m.Regs[isa.R0]; base != 0 && size > 0 {
			undef.Set(base, size, true)
		}
		return nil
	})
}
