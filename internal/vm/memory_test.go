package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/isa"
)

// mappedTables counts the page tables the directory has allocated.
func mappedTables(mem *Memory) int {
	n := 0
	for _, t := range mem.dir {
		if t != nil {
			n++
		}
	}
	return n
}

// pattern returns n bytes that differ from their neighbours.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// A word straddling a 4 KiB boundary that lies inside one 64 KiB region
// takes the slow path and maps both pages.
func TestWordStraddlesSmallPage(t *testing.T) {
	mem := NewMemory()
	addr := uint64(0x1_0000 + pageSize - 3) // 0x10ffd: bytes in 0x10000 and 0x11000
	if addr>>16 != (addr+7)>>16 || addr>>pageShift == (addr+7)>>pageShift {
		t.Fatalf("%#x does not straddle a 4 KiB boundary inside a 64 KiB region", addr)
	}
	var v uint64 = 0x0102030405060708
	if err := mem.Write64(addr, v); err != nil {
		t.Fatal(err)
	}
	if got, err := mem.Read64(addr); err != nil || got != v {
		t.Fatalf("Read64 = %#x, %v; want %#x", got, err, v)
	}
	for i := uint64(0); i < 8; i++ {
		if b, _ := mem.ReadB(addr + i); b != byte(v>>(8*i)) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, byte(v>>(8*i)))
		}
	}
	if n := mappedPages(mem); n != 2 {
		t.Fatalf("straddling write mapped %d pages, want 2", n)
	}
	// Read32 across the same boundary.
	if got, err := mem.Read32(addr + 1); err != nil || got != uint32(v>>8) {
		t.Fatalf("Read32 = %#x, %v; want %#x", got, err, uint32(v>>8))
	}
}

// Bulk copies cross a 1 MiB directory boundary, mapping one table on each
// side and only the pages they touch.
func TestBytesCrossDirectoryBoundary(t *testing.T) {
	mem := NewMemory()
	const boundary = 0x3000_0000 // a multiple of 1 MiB
	addr := uint64(boundary - 100)
	want := pattern(300)
	if err := mem.WriteBytes(addr, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want)+16)
	if err := mem.ReadBytes(addr-8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[8:8+len(want)], want) || !bytes.Equal(got[:8], make([]byte, 8)) ||
		!bytes.Equal(got[8+len(want):], make([]byte, 8)) {
		t.Fatalf("ReadBytes across %#x = %x", boundary, got)
	}
	if n, d := mappedPages(mem), mappedTables(mem); n != 2 || d != 2 {
		t.Fatalf("write across a directory boundary mapped %d pages in %d tables, want 2 in 2", n, d)
	}
}

// Every read of memory never written returns zeros and allocates neither a
// page nor a table.
func TestUnwrittenReadsAllocateNoTables(t *testing.T) {
	mem := NewMemory()
	for a := uint64(0); a < AddrLimit; a += 1 << dirShift {
		if v, err := mem.Read64(a + 8); err != nil || v != 0 {
			t.Fatalf("Read64(%#x) = %#x, %v", a+8, v, err)
		}
		if v, err := mem.Read64(a + pageSize - 4); err != nil || v != 0 {
			t.Fatalf("straddling Read64(%#x) = %#x, %v", a+pageSize-4, v, err)
		}
		if v, err := mem.Read32(a + 4); err != nil || v != 0 {
			t.Fatalf("Read32(%#x) = %#x, %v", a+4, v, err)
		}
		if b, err := mem.ReadB(a + 1); err != nil || b != 0 {
			t.Fatalf("ReadB(%#x) = %#x, %v", a+1, b, err)
		}
	}
	buf := make([]byte, 3<<dirShift)
	if err := mem.ReadBytes(0x1000_0000-1, buf); err != nil || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("ReadBytes of unwritten memory = %v, or non-zero", err)
	}
	if s, err := mem.ReadCString(0x2000_0000, 64); err != nil || s != "" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	var out bytes.Buffer
	if err := mem.Stream(&out, 0x2000_0000-5, 10); err != nil || out.Len() != 10 {
		t.Fatalf("Stream wrote %d bytes, %v", out.Len(), err)
	}
	if n, d := mappedPages(mem), mappedTables(mem); n != 0 || d != 0 {
		t.Fatalf("unwritten reads mapped %d pages in %d tables", n, d)
	}
}

// SysMmapX regions stay 64 KiB apart whatever the memory's page size, so
// JIT code lands at the same guest addresses.
func TestMmapXRegionsAre64KiBApart(t *testing.T) {
	m := New()
	mmap := func(size uint64) uint64 {
		m.Regs[isa.R0], m.Regs[isa.R1] = isa.SysMmapX, size
		if err := m.syscall(); err != nil {
			t.Fatal(err)
		}
		return m.Regs[isa.R0]
	}
	a := mmap(4096)
	b := mmap(1)
	c := mmap(0x1_0001)
	d := mmap(8)
	if a != isa.LayoutJITBase || b-a != 0x1_0000 || c-b != 0x1_0000 || d-c != 0x2_0000 {
		t.Fatalf("SysMmapX bases %#x %#x %#x %#x; want 64 KiB-rounded from %#x",
			a, b, c, d, isa.LayoutJITBase)
	}
}

// output issues SysWrite (fd 1) or TrapPuts of n bytes at addr.
func output(m *Machine, puts bool, addr, n uint64) error {
	if puts {
		m.Regs[isa.R1], m.Regs[isa.R2] = addr, n
		return m.TrapHandlerFor(isa.TrapPuts)(m)
	}
	m.Regs[isa.R0], m.Regs[isa.R1], m.Regs[isa.R2], m.Regs[isa.R3] = isa.SysWrite, 1, addr, n
	return m.syscall()
}

// A guest-chosen output length never sizes a host buffer: a range reaching
// AddrLimit, or wrapping, faults before anything is written, exactly where
// a byte-by-byte read would.
func TestOutputHostileLength(t *testing.T) {
	for _, puts := range []bool{false, true} {
		cases := []struct{ addr, n, faultAddr uint64 }{
			{0x2000_0000, 1 << 62, AddrLimit},
			{0x2000_0000, 5 << 30, AddrLimit},
			{0x2000_0000, ^uint64(0) - 0x1000, AddrLimit}, // addr+n wraps
			{AddrLimit - 8, 9, AddrLimit},
			{AddrLimit + 0x40, 16, AddrLimit + 0x40},
		}
		for _, c := range cases {
			m := New()
			m.InstallDefaultServices()
			var out bytes.Buffer
			m.Out = &out
			m.Mem.WriteBytes(c.addr&(AddrLimit-1), []byte("payload"))
			err := output(m, puts, c.addr, c.n)
			var f *Fault
			if !errors.As(err, &f) || f.Kind != "address out of range" || f.Addr != c.faultAddr {
				t.Fatalf("puts=%v output(%#x, %#x) = %v; want out-of-range fault at %#x",
					puts, c.addr, c.n, err, c.faultAddr)
			}
			if out.Len() != 0 {
				t.Fatalf("puts=%v output(%#x, %#x) wrote %d bytes before faulting",
					puts, c.addr, c.n, out.Len())
			}
		}
	}
}

// In-range output is the guest bytes, across page and directory
// boundaries, and SysWrite returns the length.
func TestOutputInRange(t *testing.T) {
	for _, puts := range []bool{false, true} {
		m := New()
		m.InstallDefaultServices()
		var out bytes.Buffer
		m.Out = &out
		addr := uint64(0x3000_0000 - 3*pageSize - 17)
		want := pattern(5*pageSize + 40)
		if err := m.Mem.WriteBytes(addr, want); err != nil {
			t.Fatal(err)
		}
		if err := output(m, puts, addr, uint64(len(want))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("puts=%v wrote %d bytes, not the %d guest bytes", puts, out.Len(), len(want))
		}
		if !puts && m.Regs[isa.R0] != uint64(len(want)) {
			t.Fatalf("SysWrite returned %d, want %d", m.Regs[isa.R0], len(want))
		}
		// An empty range never faults, wherever it starts.
		if err := output(m, puts, AddrLimit+8, 0); err != nil || out.Len() != len(want) {
			t.Fatalf("puts=%v empty output beyond AddrLimit = %v, wrote %d bytes",
				puts, err, out.Len()-len(want))
		}
		// A nil sink still range-checks and writes nothing.
		m.Out = nil
		if err := output(m, puts, addr, 1<<40); err == nil {
			t.Fatalf("puts=%v with nil Out accepted an out-of-range length", puts)
		}
	}
}

// faultAddr returns the address of the fault err carries, or 0 for nil.
func faultAddr(t *testing.T, err error) uint64 {
	t.Helper()
	if err == nil {
		return 0
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v is no fault", err)
	}
	return f.Addr
}

// Read64 and Write64 compose a word that straddles a page from two page
// lookups. The value read, the memory left behind and the fault address
// must all match the byte-wise ReadBytes and WriteBytes, whether the
// neighbouring pages were written or never written, and where the word
// runs into AddrLimit.
func TestStraddlingWordMatchesBytewise(t *testing.T) {
	const v uint64 = 0x8877665544332211
	// The shadow of the stack top, where JMSan and JTSan bitmap windows
	// straddle a page.
	const base uint64 = 0x7edff000
	var addrs []uint64
	for off := uint64(pageSize - 7); off < pageSize; off++ {
		addrs = append(addrs, base+off)
	}
	for d := uint64(7); d >= 1; d-- {
		addrs = append(addrs, AddrLimit-d)
	}
	addrs = append(addrs, AddrLimit, AddrLimit+pageSize-3, ^uint64(0)-3)

	for _, addr := range addrs {
		lo := min(addr, AddrLimit-1) &^ (pageSize - 1)
		hi := lo + pageSize
		for _, prep := range []struct {
			name      string
			from, end uint64 // bytes written before the access
		}{
			{"unwritten", lo, lo},
			{"both written", lo, min(hi+pageSize, AddrLimit)},
			{"first written", lo, hi},
			{"second written", hi, min(hi+pageSize, AddrLimit)},
		} {
			a, b := NewMemory(), NewMemory()
			if prep.end > prep.from {
				fill := pattern(int(prep.end - prep.from))
				if err := a.WriteBytes(prep.from, fill); err != nil {
					t.Fatal(err)
				}
				if err := b.WriteBytes(prep.from, fill); err != nil {
					t.Fatal(err)
				}
			}
			where := func(op string) string {
				return fmt.Sprintf("%s at %#x, %s", op, addr, prep.name)
			}

			got, gerr := a.Read64(addr)
			var buf [8]byte
			werr := b.ReadBytes(addr, buf[:])
			want := binary.LittleEndian.Uint64(buf[:])
			if werr != nil {
				want = 0
			}
			if got != want || faultAddr(t, gerr) != faultAddr(t, werr) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: got %#x, %v; byte-wise %#x, %v", where("Read64"), got, gerr, want, werr)
			}

			binary.LittleEndian.PutUint64(buf[:], v)
			gerr, werr = a.Write64(addr, v), b.WriteBytes(addr, buf[:])
			if faultAddr(t, gerr) != faultAddr(t, werr) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: got %v; byte-wise %v", where("Write64"), gerr, werr)
			}
			end := min(hi+pageSize, AddrLimit)
			am, bm := make([]byte, end-lo), make([]byte, end-lo)
			if err := a.ReadBytes(lo, am); err != nil {
				t.Fatal(err)
			}
			if err := b.ReadBytes(lo, bm); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(am, bm) || mappedPages(a) != mappedPages(b) {
				t.Fatalf("%s: memory differs from the byte-wise write", where("Write64"))
			}
		}
	}
}
