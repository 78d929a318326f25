package vm

import (
	"fmt"
	"io"

	"repro/internal/isa"
)

// TrapHandler services an OpTrap instruction. Arguments are in r1..r5; the
// result, if any, goes in r0. The trap PC (address of the trap instruction)
// is available as m.TrapPC.
type TrapHandler func(m *Machine) error

// Costs assigns a weighted cycle cost to each executed instruction. The
// absolute values are arbitrary; only ratios matter, and they are chosen to
// be plausible for a simple in-order core so that instrumentation overheads
// land in realistic ranges.
var Costs = struct {
	ALU, Mem, Branch, CallRet, Syscall, Trap, Nop uint64
}{
	ALU: 1, Mem: 2, Branch: 1, CallRet: 2, Syscall: 30, Trap: 40, Nop: 1,
}

// instrCost returns the weighted cost of one instruction: the cost of the
// class its opcode's row puts it in.
func instrCost(op isa.Op) uint64 {
	switch o := op.Info(); {
	case o.Flow == isa.FlowCall || o.Flow == isa.FlowCallIndirect || o.Flow == isa.FlowRet:
		return Costs.CallRet
	case o.Flow != isa.FlowNone && o.Flow != isa.FlowHalt:
		return Costs.Branch
	case o.Mem != isa.MemNone:
		return Costs.Mem
	case op == isa.OpSyscall:
		return Costs.Syscall
	case op == isa.OpTrap:
		return Costs.Trap
	case op == isa.OpNop:
		return Costs.Nop
	}
	return Costs.ALU
}

// jitAlign is the granularity of SysMmapX regions (64 KiB), independent of
// the memory's page size.
const jitAlign = 1 << 16

// ExitError reports program termination through SysExit with a non-panic
// path; Run returns nil for a zero exit status and the machine records the
// status either way.
type ExitError struct{ Status int64 }

func (e *ExitError) Error() string { return fmt.Sprintf("vm: exit status %d", e.Status) }

// Machine is one JVA hardware thread plus its address space and OS-like
// services.
type Machine struct {
	Regs  [isa.NumRegs]uint64
	Flags isa.Flag
	PC    uint64
	Mem   *Memory

	// Cycles is the weighted cycle count; Instrs the retired instruction
	// count. Performance results are ratios of Cycles.
	Cycles uint64
	Instrs uint64

	// Canary is the process stack-canary secret returned by OpLdG.
	Canary uint64

	// Halted is set once the program exits; ExitStatus holds its status.
	Halted     bool
	ExitStatus int64

	// Out receives SysWrite/TrapPuts output.
	Out io.Writer

	// TrapPC is the address of the currently-serviced trap instruction.
	TrapPC uint64

	// TrapOrigin, when non-nil, remaps the TrapPC reported to handlers:
	// a trap whose instruction address is a key reports the mapped value
	// instead. The static rewriting backend uses this so traps executing
	// from relocated code copies report the original application anchor,
	// exactly as code-cache traps do under the dynamic modifier.
	TrapOrigin map[uint64]uint64

	traps map[int64]TrapHandler

	// brk is the current program break for SysBrk.
	brk uint64
	// jitNext is the next SysMmapX region base.
	jitNext uint64

	// MaxInstrs aborts runaway programs; 0 means no limit.
	MaxInstrs uint64

	// blocks caches every block Run dispatches, native or translated.
	blocks BlockCache

	// Translate, when set, builds the block at pc on a block-cache miss in
	// place of a native decoding. The dynamic modifier installs it
	// (dbm.DBM.Run), as does the hybrid rewriting backend, which routes
	// each miss to native code or to the modifier.
	Translate func(pc uint64) (*Block, error)

	// BlockHook, when set, observes every block Run dispatches, native or
	// translated — the executed-block signal coverage-guided fuzzing
	// (internal/fuzz) feeds into a metrics.Bitmap.
	BlockHook func(pc uint64)
}

// New returns a machine with an empty address space, the stack pointer at
// the canonical stack top, and default heap/JIT service state.
func New() *Machine {
	m := &Machine{
		Mem:     NewMemory(),
		Canary:  0x00c0ffee_5afe_f00d & 0x00ffffff_ffffffff,
		traps:   map[int64]TrapHandler{},
		brk:     isa.LayoutHeapBase,
		jitNext: isa.LayoutJITBase,
		Out:     io.Discard,
	}
	m.Regs[isa.SP] = isa.LayoutStackTop
	return m
}

// HandleTrap registers (or replaces) the handler for trap code. Registering
// a nil handler removes the code.
func (m *Machine) HandleTrap(code int64, h TrapHandler) {
	if h == nil {
		delete(m.traps, code)
		return
	}
	m.traps[code] = h
}

// TrapHandlerFor returns the registered handler for code, or nil. Tool
// runtimes use it to wrap (interpose on) existing services such as the
// program allocator.
func (m *Machine) TrapHandlerFor(code int64) TrapHandler { return m.traps[code] }

// AddCycles charges extra cycles (used by the dynamic modifier to model
// translation and dispatch costs).
func (m *Machine) AddCycles(n uint64) { m.Cycles += n }

// Push pushes v on the application stack.
func (m *Machine) Push(v uint64) error {
	sp := m.Regs[isa.SP] - 8
	if sp < isa.LayoutStackLimit {
		return &Fault{PC: m.PC, Addr: sp, Kind: "stack overflow"}
	}
	m.Regs[isa.SP] = sp
	return m.Mem.Write64(sp, v)
}

// Pop pops the top of the application stack.
func (m *Machine) Pop() (uint64, error) {
	sp := m.Regs[isa.SP]
	v, err := m.Mem.Read64(sp)
	if err != nil {
		return 0, err
	}
	m.Regs[isa.SP] = sp + 8
	return v, nil
}

// setFlags updates Z and S from result, and C/O from the supplied values.
func (m *Machine) setFlags(result uint64, carry, overflow bool) {
	var f isa.Flag
	if result == 0 {
		f |= isa.FlagZ
	}
	if int64(result) < 0 {
		f |= isa.FlagS
	}
	if carry {
		f |= isa.FlagC
	}
	if overflow {
		f |= isa.FlagO
	}
	m.Flags = f
}

// condTaken evaluates a conditional branch against the current flags.
func (m *Machine) condTaken(op isa.Op) bool {
	z := m.Flags&isa.FlagZ != 0
	s := m.Flags&isa.FlagS != 0
	c := m.Flags&isa.FlagC != 0
	o := m.Flags&isa.FlagO != 0
	switch op {
	case isa.OpJe:
		return z
	case isa.OpJne:
		return !z
	case isa.OpJl:
		return s != o
	case isa.OpJle:
		return z || s != o
	case isa.OpJg:
		return !z && s == o
	case isa.OpJge:
		return s == o
	case isa.OpJb:
		return c
	case isa.OpJae:
		return !c
	}
	return false
}

// syscall services OpSyscall.
func (m *Machine) syscall() error {
	num := m.Regs[isa.R0]
	a1, a2, a3 := m.Regs[isa.R1], m.Regs[isa.R2], m.Regs[isa.R3]
	switch num {
	case isa.SysExit:
		m.Halted = true
		m.ExitStatus = int64(a1)
	case isa.SysWrite:
		if err := m.Mem.Stream(m.Out, a2, a3); err != nil {
			return err
		}
		m.Regs[isa.R0] = a3
	case isa.SysBrk:
		// a1 is a signed increment; the break stays inside the heap.
		brk := m.brk + a1
		if (int64(a1) < 0) != (brk < m.brk) ||
			brk < isa.LayoutHeapBase || brk > isa.LayoutHeapLimit {
			m.Regs[isa.R0] = ^uint64(0)
			return nil
		}
		m.Regs[isa.R0], m.brk = m.brk, brk
	case isa.SysMmapX:
		base := m.jitNext
		m.jitNext += (a1 + jitAlign - 1) &^ (jitAlign - 1)
		m.Regs[isa.R0] = base
	case isa.SysClock:
		m.Regs[isa.R0] = m.Instrs
	default:
		return &Fault{PC: m.PC, Kind: fmt.Sprintf("unknown syscall %d", num)}
	}
	return nil
}
