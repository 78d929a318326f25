package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

// loadAndRun assembles src, loads its sections at their link-time addresses,
// installs default services and runs from the entry point.
func loadAndRun(t *testing.T, src string) (*Machine, error) {
	t.Helper()
	m := New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	mod, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, sec := range mod.Sections {
		if err := m.Mem.WriteBytes(sec.Addr, sec.Data); err != nil {
			t.Fatalf("load %s: %v", sec.Name, err)
		}
	}
	return m, m.Run(mod.Entry)
}

func TestMemoryRoundtrip(t *testing.T) {
	mem := NewMemory()
	if err := mem.Write64(0x1000, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := mem.Read64(0x1000)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("Read64 = %#x, %v", v, err)
	}
	// cross-page access (page size 4 KiB)
	if err := mem.Write64(0x1fffc, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err = mem.Read64(0x1fffc)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("cross-page Read64 = %#x, %v", v, err)
	}
	if v32, err := mem.Read32(0x1fffc); err != nil || v32 != 0x55667788 {
		t.Fatalf("Read32 = %#x, %v", v32, err)
	}
	if _, err := mem.ReadB(AddrLimit); err == nil {
		t.Fatal("read beyond AddrLimit should fault")
	}
	if err := mem.WriteB(AddrLimit+5, 1); err == nil {
		t.Fatal("write beyond AddrLimit should fault")
	}
}

// Property: byte writes then reads are identity for any in-range address.
func TestMemoryByteProperty(t *testing.T) {
	mem := NewMemory()
	f := func(addr uint32, v byte) bool {
		a := uint64(addr) % AddrLimit
		if err := mem.WriteB(a, v); err != nil {
			return false
		}
		got, err := mem.ReadB(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadCString(t *testing.T) {
	mem := NewMemory()
	mem.WriteBytes(0x2000, []byte("hello\x00world"))
	s, err := mem.ReadCString(0x2000, 64)
	if err != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	s, _ = mem.ReadCString(0x2000, 3)
	if s != "hel" {
		t.Fatalf("bounded ReadCString = %q", s)
	}
}

func TestArithmeticAndExit(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, 6
    mov r2, 7
    mul r1, r2
    mov r1, r1
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitStatus != 42 {
		t.Fatalf("exit = %d (halted=%v), want 42", m.ExitStatus, m.Halted)
	}
	if m.Instrs == 0 || m.Cycles == 0 {
		t.Error("no cycle accounting")
	}
}

func TestFlagsAndBranches(t *testing.T) {
	// Computes sum 1..10 with a loop; exits with the sum.
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, 10
    mov r2, 0
.loop:
    add r2, r1
    sub r1, 1
    cmp r1, 0
    jg .loop
    mov r1, r2
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 55 {
		t.Fatalf("sum = %d, want 55", m.ExitStatus)
	}
}

func TestSignedUnsignedBranches(t *testing.T) {
	// -1 < 1 signed (jl taken), but unsigned -1 > 1 (jb not taken).
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, -1
    mov r3, 0
    cmp r1, 1
    jl .signedless
    jmp .after1
.signedless:
    or r3, 1
.after1:
    mov r2, -1
    cmp r2, 1
    jb .below
    jmp .after2
.below:
    or r3, 2
.after2:
    mov r1, r3
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 1 {
		t.Fatalf("flags result = %d, want 1 (signed taken, unsigned not)", m.ExitStatus)
	}
}

func TestCallRetAndStack(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, 5
    call double
    mov r1, r0
    mov r0, 1
    syscall
double:
    push fp
    mov fp, sp
    mov r0, r1
    add r0, r1
    pop fp
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 10 {
		t.Fatalf("double(5) = %d, want 10", m.ExitStatus)
	}
	if m.Regs[isa.SP] != isa.LayoutStackTop {
		t.Errorf("stack not balanced: sp = %#x", m.Regs[isa.SP])
	}
}

func TestIndirectCallThroughTable(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    la r6, table
    ldq r7, [r6+8]      ; table[1] = g
    calli r7
    mov r1, r0
    mov r0, 1
    syscall
f:
    mov r0, 111
    ret
g:
    mov r0, 222
    ret
.section .data
table:
    .quad f
    .quad g
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 222 {
		t.Fatalf("indirect call = %d, want 222", m.ExitStatus)
	}
}

func TestLoadStoreWidths(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    la r6, buf
    mov r1, 0x1ff
    stb [r6+0], r1      ; truncates to 0xff
    ldb r2, [r6+0]
    mov r1, r2
    mov r0, 1
    syscall
.section .data
buf:
    .zero 16
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 0xff {
		t.Fatalf("byte store/load = %#x, want 0xff", m.ExitStatus)
	}
}

func TestIndexedAccess(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    la r6, arr
    mov r7, 2
    ldxq r1, [r6+r7*8]   ; arr[2] = 30
    mov r0, 1
    syscall
.section .data
arr:
    .quad 10
    .quad 20
    .quad 30
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 30 {
		t.Fatalf("arr[2] = %d, want 30", m.ExitStatus)
	}
}

func TestMallocFreeTrap(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, 64
    trap 1              ; malloc(64)
    mov r6, r0
    mov r1, 77
    stq [r6+0], r1
    ldq r1, [r6+0]
    push r1
    mov r1, r6
    trap 2              ; free
    pop r1
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 77 {
		t.Fatalf("heap roundtrip = %d, want 77", m.ExitStatus)
	}
}

func TestWriteSyscallAndPuts(t *testing.T) {
	var out bytes.Buffer
	m := New()
	m.Out = &out
	m.InstallDefaultServices()
	m.MaxInstrs = 10000
	mod, err := asm.Assemble(`
.module t
.entry _start
.section .text
_start:
    la r2, msg
    mov r3, 5
    mov r1, 1
    mov r0, 2           ; SysWrite(fd=1, msg, 5)
    syscall
    la r1, msg
    mov r2, 5
    trap 6              ; puts
    mov r1, 123
    trap 7              ; puti
    hlt
.section .rodata
msg:
    .ascii "hello"
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range mod.Sections {
		m.Mem.WriteBytes(sec.Addr, sec.Data)
	}
	if err := m.Run(mod.Entry); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "hellohello123\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestCanaryLdg(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    ldg r1
    ldg r2
    cmp r1, r2
    je .same
    mov r1, 0
    jmp .out
.same:
    mov r1, 1
.out:
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 1 {
		t.Fatal("ldg not stable")
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	_, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, 10
    mov r2, 0
    div r1, r2
    hlt
`)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.Kind, "division") {
		t.Fatalf("err = %v, want division fault", err)
	}
}

func TestUndecodableFetchFaults(t *testing.T) {
	m := New()
	m.MaxInstrs = 100
	// Jump straight into zeroed memory.
	err := m.Run(0x400000)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.Kind, "undecodable") {
		t.Fatalf("err = %v, want undecodable fault", err)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	_, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov sp, 0x5e000010  ; just above LayoutStackLimit
    push r1
    push r1
    push r1
`)
	var f *Fault
	if !errors.As(err, &f) || !strings.Contains(f.Kind, "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestInstrBudget(t *testing.T) {
	m := New()
	m.MaxInstrs = 50
	var buf []byte
	jmp := isa.Instr{Op: isa.OpJmp, Addr: 0x400000, Size: 5, Disp: -5}
	buf = isa.Encode(buf, &jmp)
	m.Mem.WriteBytes(0x400000, buf)
	err := m.Run(0x400000)
	var f *Fault
	if !IsBudget(err) || !errors.As(err, &f) {
		t.Fatalf("err = %v, want budget fault", err)
	}
	// The instruction that exceeds the budget is counted and charged, then
	// faults at its own address.
	if m.Instrs != m.MaxInstrs+1 || f.PC != jmp.Addr || m.Cycles != 51*Costs.Branch {
		t.Fatalf("at budget fault: Instrs=%d PC=%#x Cycles=%d, want %d %#x %d",
			m.Instrs, f.PC, m.Cycles, m.MaxInstrs+1, jmp.Addr, 51*Costs.Branch)
	}
	// Block execution accounts exactly like one Exec per instruction.
	one := New()
	one.MaxInstrs = 50
	for err = nil; err == nil; {
		_, err = one.Exec(&jmp)
	}
	if one.Instrs != m.Instrs || one.Cycles != m.Cycles || one.PC != m.PC {
		t.Fatalf("Exec loop: Instrs=%d Cycles=%d PC=%#x, block run %d %d %#x",
			one.Instrs, one.Cycles, one.PC, m.Instrs, m.Cycles, m.PC)
	}
}

// mappedPages counts the pages memory has allocated.
func mappedPages(mem *Memory) int {
	n := 0
	for _, t := range mem.dir {
		if t == nil {
			continue
		}
		for _, p := range t {
			if p != nil {
				n++
			}
		}
	}
	return n
}

func TestUnwrittenReadsAllocateNoPages(t *testing.T) {
	mem := NewMemory()
	for i := uint64(0); i < 1000; i++ {
		addr := 0x1000_0000 + i*pageSize + 8*i
		if v, err := mem.Read64(addr); err != nil || v != 0 {
			t.Fatalf("Read64(%#x) = %#x, %v; want 0", addr, v, err)
		}
		if b, err := mem.ReadB(addr + 1); err != nil || b != 0 {
			t.Fatalf("ReadB(%#x) = %#x, %v; want 0", addr+1, b, err)
		}
	}
	var buf [16]byte
	if err := mem.ReadBytes(0x2000_0000-8, buf[:]); err != nil || buf != [16]byte{} {
		t.Fatalf("cross-page ReadBytes = %x, %v; want zeros", buf, err)
	}
	if n := mappedPages(mem); n != 0 {
		t.Fatalf("reads of 1000 unwritten pages mapped %d pages", n)
	}
	if n := testing.AllocsPerRun(100, func() { mem.Read64(0x3000_0000) }); n != 0 {
		t.Fatalf("unwritten Read64 allocates %v times", n)
	}
	// A later write maps exactly its page and reads back.
	addr := uint64(0x1000_0000 + 7*pageSize + 56)
	if err := mem.Write64(addr, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, err := mem.Read64(addr); err != nil || v != 0x1122334455667788 {
		t.Fatalf("Read64 after write = %#x, %v", v, err)
	}
	if v, _ := mem.Read64(addr + 8); v != 0 {
		t.Fatalf("neighbouring word = %#x, want 0", v)
	}
	if n := mappedPages(mem); n != 1 {
		t.Fatalf("one write mapped %d pages, want 1", n)
	}
}

func TestJITCodeGeneration(t *testing.T) {
	// The program requests an executable region, writes a tiny function
	// into it (mov r0, 99; ret) and calls it — the dynamically generated
	// code scenario from §3.4.3.
	ret := isa.Instr{Op: isa.OpRet}
	movImm := isa.Instr{Op: isa.OpMovRI, Rd: isa.R0, Imm: 99}
	var code []byte
	code = isa.Encode(code, &movImm)
	code = isa.Encode(code, &ret)
	src := `
.module t
.entry _start
.section .text
_start:
    mov r1, 4096
    mov r0, 4           ; SysMmapX
    syscall
    mov r6, r0
    la r7, blob
    mov r8, 0
.copy:
    ldxb r9, [r7+r8]
    stxb [r6+r8], r9
    add r8, 1
    cmp r8, BLOBLEN
    jl .copy
    calli r6
    mov r1, r0
    mov r0, 1
    syscall
.section .rodata
blob:
`
	for _, b := range code {
		src += "    .byte " + itoa(int(b)) + "\n"
	}
	src = strings.Replace(src, "BLOBLEN", itoa(len(code)), 1)
	m, err := loadAndRun(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 99 {
		t.Fatalf("JIT call = %d, want 99", m.ExitStatus)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestAllocatorProperties(t *testing.T) {
	a := NewAllocator(0x1000, 0x100000)
	// Non-overlap property over a random alloc/free workload.
	f := func(sizes []uint16) bool {
		a := NewAllocator(0x1000, 0x10000000)
		var bases []uint64
		for _, s := range sizes {
			b := a.Alloc(uint64(s))
			if b == 0 {
				return false
			}
			bases = append(bases, b)
		}
		// check pairwise non-overlap via Live map
		type iv struct{ lo, hi uint64 }
		var ivs []iv
		for b, sz := range a.Live {
			ivs = append(ivs, iv{b, b + sz})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					return false
				}
			}
		}
		for _, b := range bases {
			a.Free(b)
		}
		return len(a.Live) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	// Reuse: free then alloc of same size reuses the block.
	b1 := a.Alloc(64)
	a.Free(b1)
	b2 := a.Alloc(64)
	if b1 != b2 {
		t.Errorf("free list not reused: %#x vs %#x", b1, b2)
	}
	// Unknown free is ignored.
	a.Free(0xdead)
	// Exhaustion returns 0.
	small := NewAllocator(0, 32)
	if small.Alloc(64) != 0 {
		t.Error("exhausted allocator should return 0")
	}
}

func TestSysBrkAndClock(t *testing.T) {
	m, err := loadAndRun(t, `
.module t
.entry _start
.section .text
_start:
    mov r1, 4096
    mov r0, 3           ; brk
    syscall
    mov r6, r0
    mov r0, 5           ; clock
    syscall
    cmp r0, 0
    je .bad
    mov r1, 0
    mov r0, 1
    syscall
.bad:
    mov r1, 9
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 0 {
		t.Fatalf("exit = %d", m.ExitStatus)
	}
}

func TestTrapInterposition(t *testing.T) {
	// A tool can wrap the program allocator, like ASan's LD_PRELOAD.
	m := New()
	orig := m.InstallDefaultServices()
	_ = orig
	inner := m.TrapHandlerFor(isa.TrapMalloc)
	var interposed int
	m.HandleTrap(isa.TrapMalloc, func(m *Machine) error {
		interposed++
		return inner(m)
	})
	mod, err := asm.Assemble(`
.module t
.entry _start
.section .text
_start:
    mov r1, 8
    trap 1
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range mod.Sections {
		m.Mem.WriteBytes(sec.Addr, sec.Data)
	}
	if err := m.Run(mod.Entry); err != nil {
		t.Fatal(err)
	}
	if interposed != 1 {
		t.Fatalf("interposed = %d, want 1", interposed)
	}
	if m.Regs[isa.R0] == 0 {
		t.Fatal("interposed malloc returned 0")
	}
}

func TestUnknownTrapAndSyscallFault(t *testing.T) {
	if _, err := loadAndRun(t, ".module t\n.entry _start\n.section .text\n_start: trap 9999\nhlt"); err == nil {
		t.Error("unknown trap should fault")
	}
	if _, err := loadAndRun(t, ".module t\n.entry _start\n.section .text\n_start:\nmov r0, 999\nsyscall\nhlt"); err == nil {
		t.Error("unknown syscall should fault")
	}
}

func TestAllocatorRejectsOverflowingSizes(t *testing.T) {
	a := NewAllocator(0x1000, 0x100000)
	// ^0 rounds to 0; ^0-31 rounds to a size whose end wraps below the
	// heap base.
	for _, size := range []uint64{^uint64(0), ^uint64(0) - 31, ^uint64(0) - 15, 1 << 63} {
		if b := a.Alloc(size); b != 0 {
			t.Errorf("Alloc(%#x) = %#x, want 0", size, b)
		}
	}
	if len(a.Live) != 0 {
		t.Fatalf("rejected allocations left live blocks: %v", a.Live)
	}
	b1, b2 := a.Alloc(16), a.Alloc(16)
	if b1 != 0x1000 || b2 != 0x1010 {
		t.Errorf("Alloc(16) twice = %#x, %#x; want 0x1000, 0x1010", b1, b2)
	}
}

func TestSysBrkStaysInsideTheHeap(t *testing.T) {
	m := New()
	brk := func(incr uint64) uint64 {
		m.Regs[isa.R0], m.Regs[isa.R1] = isa.SysBrk, incr
		if err := m.syscall(); err != nil {
			t.Fatal(err)
		}
		return m.Regs[isa.R0]
	}
	const fail = ^uint64(0)
	base, limit := uint64(isa.LayoutHeapBase), uint64(isa.LayoutHeapLimit)
	steps := []struct {
		incr, want, brk uint64
	}{
		{4096, base, base + 4096},
		{^uint64(4096) + 1, base + 4096, base}, // shrink back by 4096
		{^uint64(0), fail, base},               // below the heap base
		{limit - base + 1, fail, base},         // past the heap limit
		{^uint64(0) - base + 1, fail, base},    // wraps to address 0
		{1 << 63, fail, base},                  // wraps far below
		{limit - base, base, limit},            // exactly to the limit
		{1, fail, limit},                       // one past it
		{^uint64(limit-base) + 1, limit, base}, // exactly back to base
		{0, base, base},
	}
	for i, s := range steps {
		if got := brk(s.incr); got != s.want || m.brk != s.brk {
			t.Errorf("step %d: brk(%#x) = %#x with break %#x, want %#x with break %#x",
				i, s.incr, got, m.brk, s.want, s.brk)
		}
	}
}
