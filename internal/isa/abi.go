package isa

// The JVA ABI: syscall numbers, VM service-trap codes and the canonical
// address-space layout shared by the toolchain, loader, VM and security
// runtimes.

// Syscall numbers (r0 = number; arguments in r1..r5; result in r0).
const (
	SysExit  = 1 // exit(status)
	SysWrite = 2 // write(fd, buf, len) -> bytes written
	SysBrk   = 3 // brk(incr) -> previous program break (simple sbrk)
	SysMmapX = 4 // mmapx(len) -> base of fresh writable+executable region
	SysClock = 5 // clock() -> retired instruction count
)

// Trap codes (the imm32 operand of OpTrap). Traps are VM service calls used
// for facilities that in the paper's environment live in libc, ld.so or the
// sanitizer runtime; see DESIGN.md for the substitution note. Arguments in
// r1..r5, result in r0.
const (
	// TrapMalloc: r1=size -> r0=ptr (module allocator service).
	TrapMalloc = 1
	// TrapFree: r1=ptr.
	TrapFree = 2
	// TrapDlopen: r1=ptr to name, r2=len -> r0=module handle (load base).
	TrapDlopen = 3
	// TrapDlsym: r1=handle, r2=ptr to name, r3=len -> r0=symbol address.
	TrapDlsym = 4
	// TrapResolve: lazy PLT resolution; r11=import index, caller's module
	// identified by the trap PC -> r0=resolved target. The PLT stub then
	// performs `push r0; ret`, using a return as a call — the ld.so
	// control-flow abnormality from §4.2.3 of the paper.
	TrapResolve = 5
	// TrapDlclose: r1=handle (module base); unloads the module.
	TrapDlclose = 8
	// TrapPuts: r1=ptr, r2=len; debug console output.
	TrapPuts = 6
	// TrapPutI: r1=value; debug integer output.
	TrapPutI = 7

	// Trap codes >= TrapToolBase are reserved for security-tool runtimes
	// (violation reporting, allocator interposition) registered at run
	// time.
	TrapToolBase = 100
)

// Canonical address-space layout. Everything lives below 1 GiB so that
// 32-bit scanning windows (the BinCFI-style sliding 4-byte code-pointer
// scan) can see every pointer, and so that shadow addresses fit in the
// 31-bit displacement of a memory operand.
const (
	// LayoutExecBase is the conventional link-time base for non-PIC
	// executables.
	LayoutExecBase uint64 = 0x0040_0000
	// LayoutLibBase is where the loader starts placing PIC modules.
	LayoutLibBase uint64 = 0x1000_0000
	// LayoutLibStride spaces successive PIC module load bases.
	LayoutLibStride uint64 = 0x0010_0000
	// LayoutHeapBase is the base of the program heap.
	LayoutHeapBase uint64 = 0x2000_0000
	// LayoutHeapLimit is the exclusive upper bound of the heap.
	LayoutHeapLimit uint64 = 0x3000_0000
	// LayoutJITBase is where SysMmapX hands out writable+executable
	// regions for dynamically generated code.
	LayoutJITBase uint64 = 0x3800_0000
	// LayoutStackTop is the initial stack pointer (stack grows down).
	LayoutStackTop uint64 = 0x5f00_0000
	// LayoutStackLimit is the lowest valid stack address.
	LayoutStackLimit uint64 = 0x5e00_0000
	// LayoutShadowBase maps application address a to shadow byte
	// LayoutShadowBase + a/8 (the AddressSanitizer shadow encoding).
	LayoutShadowBase uint64 = 0x6000_0000
	// LayoutShadowStackBase is the base of the JCFI shadow stack region.
	LayoutShadowStackBase uint64 = 0x7000_0000
	// LayoutShadowStackPtr is the fixed slot holding the current shadow
	// stack pointer.
	LayoutShadowStackPtr uint64 = 0x7100_0000
	// LayoutCFITableBase is where JCFI-class tools place their run-time
	// target hash tables.
	LayoutCFITableBase uint64 = 0x7200_0000
	// LayoutDefShadowBase maps application address a to the definedness
	// shadow byte LayoutDefShadowBase + a/8, with bit a%8 set when the
	// application byte is UNDEFINED. Zero-filled shadow therefore means
	// "everything defined", so only allocations and frame entries pay a
	// shadow write. The bitmap covers application addresses below
	// 0x6000_0000 (code, heap, JIT and stack); tool-runtime regions at and
	// above LayoutShadowBase fall outside it and are never checked.
	LayoutDefShadowBase uint64 = 0x7300_0000
	// LayoutGenShadowBase maps application address a to the generation
	// shadow byte LayoutGenShadowBase + a/8, with bit a%8 set when the
	// application byte belongs to a FREED (quarantined) heap chunk. The
	// zero-filled shadow therefore means "temporally live": stack, globals
	// and live heap all pass the inline fast path with no heap-range test.
	// Like the definedness bitmap, it covers application addresses below
	// LayoutShadowBase; tool-runtime regions are never checked.
	LayoutGenShadowBase uint64 = 0x7400_0000
	// LayoutAddrLimit is the exclusive upper bound of the address space
	// (2 GiB): every segment, and every section of a module, lies below it.
	LayoutAddrLimit uint64 = 0x8000_0000
)

// ShadowAddr returns the shadow-memory byte address covering application
// address a (8 application bytes per shadow byte).
func ShadowAddr(a uint64) uint64 { return LayoutShadowBase + a/8 }
