package jtsan

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// allocDriver drives the quarantine wrapper's trap handlers directly, the
// way the machine's trap dispatch would.
type allocDriver struct {
	t *testing.T
	m *vm.Machine
}

func (d allocDriver) malloc(size uint64) uint64 {
	d.t.Helper()
	d.m.Regs[isa.R1] = size
	if err := d.m.TrapHandlerFor(isa.TrapMalloc)(d.m); err != nil {
		d.t.Fatalf("malloc(%d): %v", size, err)
	}
	base := d.m.Regs[isa.R0]
	if base == 0 {
		d.t.Fatalf("malloc(%d) returned null", size)
	}
	return base
}

func (d allocDriver) free(ptr uint64) {
	d.t.Helper()
	d.m.Regs[isa.R1] = ptr
	if err := d.m.TrapHandlerFor(isa.TrapFree)(d.m); err != nil {
		d.t.Fatalf("free(%#x): %v", ptr, err)
	}
}

func newRuntime(t *testing.T) (allocDriver, *tsanAllocator, *Report) {
	t.Helper()
	m := vm.New()
	m.InstallDefaultServices()
	rep := &Report{}
	alloc := installRuntime(m, rep)
	return allocDriver{t: t, m: m}, alloc, rep
}

func TestFreeParksChunkAndMarksShadow(t *testing.T) {
	d, alloc, rep := newRuntime(t)
	base := d.malloc(24)
	if bad, freed := alloc.freed.FirstSet(base, 24); freed {
		t.Fatalf("live chunk has freed byte at %#x", bad)
	}
	d.free(base)
	if rep.Total != 0 {
		t.Fatalf("legitimate free reported: %v", rep.Violations)
	}
	bad, freed := alloc.freed.FirstSet(base, 24)
	if !freed || bad != base {
		t.Fatalf("freed chunk bitmap: first freed = %#x, %v; want %#x, true",
			bad, freed, base)
	}
	obj, gen, ok := alloc.ChunkFor(base + 8)
	if !ok || obj != base || gen != 1 {
		t.Fatalf("quarantine attribution = %#x gen %d %v; want %#x gen 1 true",
			obj, gen, ok, base)
	}
}

func TestDoubleFreeVsInvalidFreeClassification(t *testing.T) {
	d, _, rep := newRuntime(t)
	base := d.malloc(16)
	d.free(base)
	d.free(base) // repeat free of a once-issued base
	d.free(0x1234_5678)
	d.free(0) // free(NULL) is a no-op
	if rep.Total != 2 {
		t.Fatalf("violations = %d, want 2: %v", rep.Total, rep.Violations)
	}
	df, inv := rep.Violations[0], rep.Violations[1]
	if df.Kind != "double-free" || df.Addr != base || df.Width != 0 {
		t.Errorf("repeat free classified %q at %#x; want double-free at %#x",
			df.Kind, df.Addr, base)
	}
	if inv.Kind != "invalid-free" || inv.Addr != 0x1234_5678 {
		t.Errorf("bogus free classified %q at %#x; want invalid-free",
			inv.Kind, inv.Addr)
	}
}

// TestDoubleFreeNotForwarded checks the refusal semantics: a repeat free is
// reported but never reaches the underlying allocator, whose free list
// would otherwise be corrupted.
func TestDoubleFreeNotForwarded(t *testing.T) {
	m := vm.New()
	m.InstallDefaultServices()
	var forwarded []uint64
	prev := m.TrapHandlerFor(isa.TrapFree)
	m.HandleTrap(isa.TrapFree, func(m *vm.Machine) error {
		forwarded = append(forwarded, m.Regs[isa.R1])
		return prev(m)
	})
	rep := &Report{}
	installRuntime(m, rep)
	d := allocDriver{t: t, m: m}
	base := d.malloc(16)
	d.free(base)
	d.free(base)
	if rep.Total != 1 {
		t.Fatalf("violations = %d, want 1", rep.Total)
	}
	// Quarantine parking means even the first free is deferred, and the
	// refused repeat must not leak through either.
	if len(forwarded) != 0 {
		t.Fatalf("frees forwarded to underlying allocator: %#x", forwarded)
	}
}

// TestGenerationWraparound drives the 16-bit generation counter past its
// maximum: the counter recycles diagnostic labels, but the freed bitmap —
// not the counter — carries the "is it freed" fact, so detection survives
// the wrap and the repeat free still classifies as double-free.
func TestGenerationWraparound(t *testing.T) {
	d, alloc, rep := newRuntime(t)
	base := d.malloc(16)
	alloc.gens[base] = 0xffff // as if freed 65535 times before
	d.free(base)
	if got := alloc.gens[base]; got != 0 {
		t.Fatalf("generation after wrap = %d, want 0", got)
	}
	if _, freed := alloc.freed.FirstSet(base, 16); !freed {
		t.Fatal("freed bitmap lost across generation wraparound")
	}
	d.free(base)
	if rep.Total != 1 || rep.Violations[0].Kind != "double-free" {
		t.Fatalf("repeat free after wrap: %v; want one double-free",
			rep.Violations)
	}
	if rep.Violations[0].Gen != 0 {
		t.Fatalf("wrapped generation reported as %d, want 0",
			rep.Violations[0].Gen)
	}
}

// TestQuarantineCapacityEviction fills the FIFO past capacity: the oldest
// chunk must be evicted — freed bits cleared, deferred free finally
// forwarded to the underlying allocator — while younger chunks keep
// trapping.
func TestQuarantineCapacityEviction(t *testing.T) {
	m := vm.New()
	m.InstallDefaultServices()
	var forwarded []uint64
	prev := m.TrapHandlerFor(isa.TrapFree)
	m.HandleTrap(isa.TrapFree, func(m *vm.Machine) error {
		forwarded = append(forwarded, m.Regs[isa.R1])
		return prev(m)
	})
	rep := &Report{}
	alloc := installRuntime(m, rep)
	d := allocDriver{t: t, m: m}

	n := defaultQuarantineChunks + 1
	bases := make([]uint64, n)
	for i := range bases {
		bases[i] = d.malloc(16)
	}
	for _, b := range bases {
		d.free(b)
	}
	if rep.Total != 0 {
		t.Fatalf("distinct frees reported: %v", rep.Violations)
	}
	if len(alloc.quarantine) != defaultQuarantineChunks {
		t.Fatalf("quarantine length = %d, want %d",
			len(alloc.quarantine), defaultQuarantineChunks)
	}
	// Exactly the oldest free was evicted and forwarded.
	if len(forwarded) != 1 || forwarded[0] != bases[0] {
		t.Fatalf("forwarded frees = %#x, want [%#x]", forwarded, bases[0])
	}
	// The evicted chunk stopped trapping; the youngest still traps.
	if _, freed := alloc.freed.FirstSet(bases[0], 16); freed {
		t.Error("evicted chunk still marked freed")
	}
	if _, freed := alloc.freed.FirstSet(bases[n-1], 16); !freed {
		t.Error("quarantined chunk lost its freed marking")
	}
	// After eviction the base is genuinely reusable: the R1 swap in the
	// eviction path must not have corrupted the allocator's view.
	again := d.malloc(16)
	if _, freed := alloc.freed.FirstSet(again, 16); freed {
		t.Errorf("fresh chunk %#x carries stale freed bits", again)
	}
}

// TestGenCheckHandlerPrecision drives the generation-check trap family
// directly: the inline fast path inspects whole shadow bytes, so the
// handler must dismiss window false positives (neighbour bytes freed,
// accessed bytes live) and report only genuine overlaps.
func TestGenCheckHandlerPrecision(t *testing.T) {
	d, alloc, rep := newRuntime(t)
	live := d.malloc(8)
	dead := d.malloc(8)
	d.free(dead)

	check := func(addr uint64, width int) {
		d.t.Helper()
		d.m.Regs[isa.R6] = addr
		if err := d.m.TrapHandlerFor(GenCheckTraps.Code(isa.R6, width))(d.m); err != nil {
			t.Fatalf("gen-check trap: %v", err)
		}
	}
	check(live, 8)
	if rep.Total != 0 {
		t.Fatalf("live access reported: %v", rep.Violations)
	}
	check(dead, 8)
	if rep.Total != 1 {
		t.Fatalf("freed access not reported (total=%d)", rep.Total)
	}
	v := rep.Violations[0]
	if v.Kind != "use-after-free" || v.Addr != dead || v.Width != 8 {
		t.Fatalf("violation = %+v; want 8-byte use-after-free at %#x", v, dead)
	}
	if v.Object != dead || v.Gen != 1 {
		t.Fatalf("attribution = chunk %#x gen %d; want chunk %#x gen 1",
			v.Object, v.Gen, dead)
	}
	// A 1-byte probe of the last live byte adjacent to the freed chunk
	// shares a shadow byte with it in the worst alignment; the precise
	// per-byte test must stay silent regardless.
	check(live+7, 1)
	if rep.Total != 1 {
		t.Fatalf("adjacent live byte reported: %v", rep.Violations)
	}
	_ = alloc
}

// TestQuarantineTickDrainsPendingCost checks the telemetry contract: the
// allocator handlers themselves add zero cycles (they run under the
// application cost center), and the model cost of shadow maintenance is
// drained by the quarantine tick trap.
func TestQuarantineTickDrainsPendingCost(t *testing.T) {
	d, alloc, _ := newRuntime(t)
	base := d.malloc(64)
	d.free(base)
	if alloc.pendingCost == 0 {
		t.Fatal("allocator events accrued no model cost")
	}
	before := d.m.Cycles
	if err := d.m.TrapHandlerFor(trapQuarTick)(d.m); err != nil {
		t.Fatal(err)
	}
	if alloc.pendingCost != 0 {
		t.Fatalf("tick left pendingCost = %d", alloc.pendingCost)
	}
	if d.m.Cycles == before {
		t.Fatal("tick added no cycles")
	}
}
