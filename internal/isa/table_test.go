package isa_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/vm"
)

// The machine state the table test starts an instruction from: registers,
// flags, and the bytes it watches, each filled before the run.
type state struct {
	regs  [isa.NumRegs]uint64
	flags isa.Flag
	addrs []uint64 // watched bytes, ascending
	bytes []byte   // their contents before the run
}

// What a run leaves behind.
type outcome struct {
	regs   [isa.NumRegs]uint64
	flags  isa.Flag
	pc     uint64
	halted bool
	fault  string
	mem    []byte // the watched bytes after the run
}

// diff describes how o differs from p, or returns "" if it does not.
func (o outcome) diff(p outcome) string {
	switch {
	case o.regs != p.regs:
		return fmt.Sprintf("registers %v, not %v", o.regs, p.regs)
	case o.flags != p.flags:
		return fmt.Sprintf("flags %v, not %v", o.flags, p.flags)
	case o.pc != p.pc || o.halted != p.halted:
		return fmt.Sprintf("pc %#x halted %v, not %#x %v", o.pc, o.halted, p.pc, p.halted)
	case o.fault != p.fault:
		return fmt.Sprintf("fault %q, not %q", o.fault, p.fault)
	case !slices.Equal(o.mem, p.mem):
		return "memory differs"
	}
	return ""
}

const (
	dataBase = isa.LayoutHeapBase // address-like register values point here
	dataLen  = 256
	stackSP  = isa.LayoutStackTop - 0x1000
)

// tableEnv runs one instruction at a time. Service opcodes (syscall, trap)
// run in a core.Load session of a program with imports, so the loader's
// lazy resolver is installed; everything else runs on a bare machine.
type tableEnv struct {
	r     *rand.Rand
	load  func() (*core.Session, error)
	entry uint64 // a code address inside the loaded program
}

func newTableEnv(t *testing.T) *tableEnv {
	main, err := cc.Compile(`int main() { char *p = malloc(8); puts(p, 0); free(p); return 0; }`,
		cc.Options{Module: "prog"})
	if err != nil {
		t.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	e := &tableEnv{r: rand.New(rand.NewSource(1))}
	e.load = func() (*core.Session, error) {
		return core.Load(main, reg, nil, nil, core.Options{})
	}
	s, err := e.load()
	if err != nil {
		t.Fatal(err)
	}
	e.entry = s.Entry
	return e
}

func isService(op isa.Op) bool { return op == isa.OpSyscall || op == isa.OpTrap }

// value draws a register value: small integers, addresses of the watched
// data, or any 64-bit value. Service opcodes get small values only, since
// some services size host buffers from their arguments.
func (e *tableEnv) value(service bool) uint64 {
	switch n := e.r.Intn(4); {
	case service || n == 0:
		return uint64(e.r.Intn(64))
	case n == 3:
		return e.r.Uint64()
	}
	return dataBase + uint64(e.r.Intn(dataLen))
}

// newCase draws an instruction of op and a state to run it from.
func (e *tableEnv) newCase(op isa.Op) (isa.Instr, *state) {
	r := e.r
	in := isa.Instr{Op: op, Rd: isa.Register(r.Intn(isa.NumRegs)),
		Rb: isa.Register(r.Intn(isa.NumRegs)), Ri: isa.Register(r.Intn(isa.NumRegs)),
		Disp: int32(r.Intn(65) - 32), Imm: int64(r.Intn(65) - 32),
		Addr: 0x40_0000 + uint64(r.Intn(0x1000)), Size: isa.EncodedSize(op)}
	if r.Intn(4) == 0 {
		in.Disp, in.Imm = int32(r.Uint32()), int64(r.Uint64())
	}
	st := &state{flags: isa.Flag(r.Intn(16))}
	service := isService(op)
	for i := range st.regs {
		st.regs[i] = e.value(service)
	}
	if r.Intn(4) != 0 {
		st.regs[isa.SP] = stackSP - 8*uint64(r.Intn(16))
	}
	if service {
		in.Addr = e.entry
		if op == isa.OpTrap {
			in.Imm = int64(r.Intn(10)) // the installed services and two unknown codes
		}
		if r.Intn(2) == 0 {
			st.regs[isa.R0] = uint64(r.Intn(6)) // mostly known syscall numbers
		}
	}
	st.watch(dataBase, dataLen, r)
	st.watch(st.regs[isa.SP]-32, 64, r)
	if o := op.Info(); o.Mem != isa.MemNone {
		st.watch(access(o, &in, &st.regs)-8, int(o.Width)+16, r)
	}
	return in, st
}

// watch fills the n bytes from lo with random values and watches them.
func (st *state) watch(lo uint64, n int, r *rand.Rand) {
	for a := lo; a != lo+uint64(n); a++ {
		if a >= isa.LayoutAddrLimit {
			continue
		}
		i, found := slices.BinarySearch(st.addrs, a)
		if !found {
			st.addrs = slices.Insert(st.addrs, i, a)
			st.bytes = slices.Insert(st.bytes, i, byte(r.Intn(256)))
		}
	}
}

func (st *state) clone() *state {
	c := *st
	c.bytes = slices.Clone(st.bytes)
	return &c
}

// run executes in from st.
func (e *tableEnv) run(t *testing.T, in isa.Instr, st *state) outcome {
	m := vm.New()
	if isService(in.Op) {
		s, err := e.load()
		if err != nil {
			t.Fatal(err)
		}
		m = s.M
	}
	m.Regs, m.Flags = st.regs, st.flags
	for i, a := range st.addrs {
		if err := m.Mem.WriteB(a, st.bytes[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.Exec(&in)
	out := outcome{regs: m.Regs, flags: m.Flags, pc: m.PC, halted: m.Halted,
		mem: make([]byte, len(st.addrs))}
	if err != nil {
		out.fault = err.Error()
	}
	for i, a := range st.addrs {
		out.mem[i], _ = m.Mem.ReadB(a)
	}
	return out
}

// access returns the first byte the row of in says it reads or writes.
func access(o isa.OpInfo, in *isa.Instr, regs *[isa.NumRegs]uint64) uint64 {
	disp := uint64(int64(in.Disp))
	switch o.Addr {
	case isa.AddrBase:
		return regs[in.Rb] + disp
	case isa.AddrIndex8:
		return regs[in.Rb] + regs[in.Ri]*8 + disp
	case isa.AddrIndex1:
		return regs[in.Rb] + regs[in.Ri] + disp
	case isa.AddrPC:
		return in.Addr + uint64(in.Size) + disp
	case isa.AddrStack:
		if o.Mem == isa.MemStore {
			return regs[isa.SP] - 8
		}
		return regs[isa.SP]
	}
	return 0
}

// TestTableMatchesMachine checks every row of the opcode table against what
// vm.Machine.Exec does, from seeded random register, flag and memory
// states:
//   - every register or flag the instruction changes is a declared def or
//     flag write;
//   - changing a register that is not a declared use, or the flags when
//     they are not read, changes no register, flag, watched byte, PC or
//     fault;
//   - an instruction that leaves the fall-through declares a control
//     transfer;
//   - for opcodes other than syscall and trap, the bytes read or written
//     are exactly the declared width at the declared address.
func TestTableMatchesMachine(t *testing.T) {
	e := newTableEnv(t)
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		t.Run(fmt.Sprintf("%d-%v", op, op), func(t *testing.T) {
			trials := 24
			if isService(op) {
				trials = 96
			}
			for trial := 0; trial < trials && !t.Failed(); trial++ {
				in, st := e.newCase(op)
				e.checkRegs(t, in, st)
				if !isService(op) {
					e.checkMemory(t, in, st)
				}
			}
		})
	}
}

func (e *tableEnv) checkRegs(t *testing.T, in isa.Instr, st *state) {
	base := e.run(t, in, st)
	uses, defs := in.RegUses(nil), in.RegDefs(nil)
	for r := range st.regs {
		if base.regs[r] != st.regs[r] && !slices.Contains(defs, isa.Register(r)) {
			t.Errorf("%s changes %v, not among its defs %v", isa.Disasm(&in), isa.Register(r), defs)
		}
	}
	if base.flags != st.flags && !in.SetsFlags() {
		t.Errorf("%s changes the flags but does not declare writing them", isa.Disasm(&in))
	}
	if next := in.Addr + uint64(in.Size); base.pc != next && base.fault == "" &&
		!base.halted && !isService(in.Op) && !in.IsCTI() {
		t.Errorf("%s moves pc to %#x, not %#x, but declares no control transfer",
			isa.Disasm(&in), base.pc, next)
	}
	for r := range st.regs {
		if slices.Contains(uses, isa.Register(r)) {
			continue
		}
		alt := st.clone()
		for alt.regs[r] == st.regs[r] {
			alt.regs[r] = e.value(isService(in.Op))
		}
		got, want := e.run(t, in, alt), base
		got.regs[r], want.regs[r] = 0, 0
		if d := got.diff(want); d != "" {
			t.Errorf("%s depends on %v, not among its uses %v: %s",
				isa.Disasm(&in), isa.Register(r), uses, d)
		}
	}
	if !in.ReadsFlags() {
		alt := st.clone()
		alt.flags ^= isa.Flag(1 + e.r.Intn(15))
		got, want := e.run(t, in, alt), base
		got.flags, want.flags = 0, 0
		if d := got.diff(want); d != "" {
			t.Errorf("%s depends on the flags but does not declare reading them: %s",
				isa.Disasm(&in), d)
		}
	}
}

// checkMemory finds the watched bytes the instruction writes (those that
// end up the same whatever they held before) and reads (those whose
// flipping changes the outcome), and checks both against the row. Flipping
// shows the first byte a load reads but not always the rest (popf keeps four
// bits of its word), so the extent of every access is also probed at the
// top of the address space: it must fit below the limit at limit-width and
// fault one byte higher.
func (e *tableEnv) checkMemory(t *testing.T, in isa.Instr, st *state) {
	o := in.Op.Info()
	base := e.run(t, in, st)
	if base.fault != "" {
		return
	}
	lo, hi := uint64(1), uint64(0) // the declared bytes [lo, hi]
	if o.Mem != isa.MemNone {
		lo = access(o, &in, &st.regs)
		hi = lo + uint64(o.Width) - 1
	}
	flipped := st.clone()
	for i := range flipped.bytes {
		flipped.bytes[i] ^= 0xff
	}
	other := e.run(t, in, flipped)
	for i, a := range st.addrs {
		written := base.mem[i] == other.mem[i]
		if want := o.Mem == isa.MemStore && a >= lo && a <= hi; written != want {
			t.Errorf("%s: byte %#x written=%v, declared %v (%d bytes at %#x)",
				isa.Disasm(&in), a, written, want, o.Width, lo)
		}
	}
	sp := st.regs[isa.SP]
	base.mem = nil
	for i, a := range st.addrs {
		if !(a+8 >= lo && a <= hi+8) && !(a+16 >= sp && a < sp+16) {
			continue // read only the bytes near the declared access and sp
		}
		alt := st.clone()
		alt.bytes[i] ^= 0xff
		got := e.run(t, in, alt)
		got.mem = nil
		read := got.diff(base) != ""
		declared := o.Mem == isa.MemLoad && a >= lo && a <= hi
		if read && !declared || !read && declared && a == lo {
			t.Errorf("%s: byte %#x read=%v, declared %v (%d bytes at %#x)",
				isa.Disasm(&in), a, read, declared, o.Width, lo)
		}
	}
	if o.Mem == isa.MemNone {
		return
	}
	for _, shift := range []uint64{0, 1} {
		top := isa.LayoutAddrLimit - uint64(o.Width) + shift
		pin, pst := in, &state{regs: st.regs, flags: st.flags}
		if !placeAt(o, &pin, pst, top) {
			return
		}
		out := e.run(t, pin, pst)
		if faulted := out.fault != ""; faulted != (shift == 1) {
			t.Errorf("%s with its %d-byte access at %#x: fault %q",
				isa.Disasm(&pin), o.Width, top, out.fault)
		}
	}
}

// placeAt changes the instruction or its registers so the row's access
// starts at a, and reports false if its operands cannot be moved
// independently.
func placeAt(o isa.OpInfo, in *isa.Instr, st *state, a uint64) bool {
	switch o.Addr {
	case isa.AddrBase, isa.AddrIndex8, isa.AddrIndex1:
		if o.Addr != isa.AddrBase {
			if in.Ri == in.Rb {
				return false
			}
			st.regs[in.Ri] = 0
		}
		st.regs[in.Rb] = a - uint64(int64(in.Disp))
	case isa.AddrPC:
		in.Addr = a - uint64(in.Size) - uint64(int64(in.Disp))
	case isa.AddrStack:
		st.regs[isa.SP] = a
		if o.Mem == isa.MemStore {
			st.regs[isa.SP] = a + 8
		}
	}
	return true
}
