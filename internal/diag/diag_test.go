package diag

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

func TestAddDedupAndCount(t *testing.T) {
	log := NewLog()
	v := Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: 0x400100, Addr: 0x2000, Width: 1}
	log.Add(v)
	log.Add(v)
	other := v
	other.PC = 0x400104
	log.Add(other)

	if log.Len() != 2 {
		t.Fatalf("Len = %d, want 2", log.Len())
	}
	if log.Total() != 3 {
		t.Fatalf("Total = %d, want 3", log.Total())
	}
	entries := log.Entries()
	if entries[0].Count != 2 || entries[1].Count != 1 {
		t.Fatalf("counts = %d,%d, want 2,1", entries[0].Count, entries[1].Count)
	}
	if entries[0].ID == entries[1].ID || entries[0].ID == "" {
		t.Fatalf("IDs not distinct content hashes: %q %q", entries[0].ID, entries[1].ID)
	}
}

func TestIDStableAcrossTraceBinding(t *testing.T) {
	// The same bug under two different traced requests must collapse into
	// one record keeping the first-seen trace binding.
	log := NewLog()
	v := Violation{Tool: "jtsan", Kind: "use-after-free", PC: 0x40, Addr: 0x99, Gen: 3}
	v.TraceID, v.SpanID = "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"
	log.Add(v)
	v.TraceID, v.SpanID = "1af7651916cd43dd8448eb211c80319c", "c7ad6b7169203331"
	log.Add(v)
	entries := log.Entries()
	if len(entries) != 1 || entries[0].Count != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace binding = %q, want first-seen", entries[0].TraceID)
	}
}

func TestCWEMapping(t *testing.T) {
	cases := map[string]string{
		"heap-buffer-overflow":   "CWE-122",
		"stack-canary-overwrite": "CWE-121",
		"uninitialized-read":     "CWE-457",
		"use-after-free":         "CWE-416",
		"double-free":            "CWE-415",
		"invalid-free":           "CWE-590",
		"forward-edge":           "CWE-691",
		"return-mismatch":        "CWE-691",
		"made-up-kind":           "",
	}
	for kind, want := range cases {
		if got := CWEForKind(kind); got != want {
			t.Errorf("CWEForKind(%q) = %q, want %q", kind, got, want)
		}
	}
	log := NewLog()
	log.Add(Violation{Tool: "jmsan", Kind: "uninitialized-read", PC: 1})
	if got := log.Entries()[0].CWE; got != "CWE-457" {
		t.Fatalf("Add did not stamp CWE: %q", got)
	}
}

func TestMarshalByteStable(t *testing.T) {
	mk := func(order []uint64) []byte {
		log := NewLog()
		for _, pc := range order {
			log.Add(Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: pc})
			log.Add(Violation{Tool: "jcfi", Kind: "forward-edge", PC: pc, Target: pc + 8})
		}
		b, err := json.Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := mk([]uint64{0x30, 0x10, 0x20})
	b := mk([]uint64{0x20, 0x30, 0x10})
	if string(a) != string(b) {
		t.Fatalf("insertion order leaked into serialisation:\n%s\n%s", a, b)
	}
	var empty *Log
	eb, err := json.Marshal(NewLog())
	if err != nil || string(eb) != "[]" {
		t.Fatalf("empty log marshals %q (%v), want []", eb, err)
	}
	if empty.Len() != 0 || empty.Total() != 0 || empty.Entries() != nil {
		t.Fatal("nil log not inert")
	}
	empty.Add(Violation{Tool: "jasan"}) // must not panic
}

// fakeSym symbolizes every PC to a fixed function.
type fakeSym struct{}

func (fakeSym) Symbolize(pc uint64) (string, string, uint64, bool) {
	return "mod.jef", "work", pc & 0xff, true
}

// stubTool is a reporting tool whose report the test fills by hand.
type stubTool struct {
	core.NullTool
	rep *Report
}

func (s stubTool) ViolationReport() *Report { return s.rep }

func TestCollectAllFamiliesAndMultiTool(t *testing.T) {
	ja := stubTool{rep: &Report{Tool: "jasan"}}
	ja.rep.Add(Violation{
		Kind: "heap-buffer-overflow", PC: 0x100, Addr: 0x2000, Width: 1,
		Shadow: 0xf9, Object: 0x1ff0, Rule: "MEM_ACCESS", CostCenter: "mem-check",
	})
	jt := stubTool{rep: &Report{Tool: "jtsan"}}
	jt.rep.Add(Violation{Kind: "use-after-free", PC: 0x300, Addr: 0x4000, Width: 4, Gen: 7})
	jt.rep.Add(Violation{Kind: "double-free", PC: 0x304, Addr: 0x4000})
	jc := stubTool{rep: &Report{Tool: "jcfi"}}
	jc.rep.Add(Violation{Kind: "forward-edge", PC: 0x400, Target: 0x500})
	multi := core.NewMultiTool(ja, core.NullTool{}, core.NewMultiTool(jt, jc))

	sc := telemetry.SpanContext{
		TraceID: "0af7651916cd43dd8448eb211c80319c",
		SpanID:  "b7ad6b7169203331",
		Sampled: true,
	}
	log := NewLog()
	if n := Collect(log, multi, fakeSym{}, sc); n != 4 {
		t.Fatalf("Collect = %d raw reports, want 4", n)
	}
	tools := map[string]int{}
	for _, v := range log.Entries() {
		tools[v.Tool]++
		if v.TraceID != sc.TraceID || v.SpanID != sc.SpanID {
			t.Fatalf("violation missing trace binding: %+v", v)
		}
		if v.Func != "work" || v.Module != "mod.jef" {
			t.Fatalf("violation not symbolized: %+v", v)
		}
		if v.CWE == "" {
			t.Fatalf("violation not CWE-classified: %+v", v)
		}
		if v.Tool == "jasan" && (v.Rule != "MEM_ACCESS" || v.CostCenter != "mem-check" || v.Object != 0x1ff0) {
			t.Fatalf("record fields not carried through: %+v", v)
		}
	}
	if tools["jasan"] != 1 || tools["jtsan"] != 2 || tools["jcfi"] != 1 {
		t.Fatalf("records by tool = %v", tools)
	}
	if n := Collect(NewLog(), core.NullTool{}, nil, telemetry.SpanContext{}); n != 0 {
		t.Fatalf("Collect on a tool without a report = %d", n)
	}
}

func TestCountAndLinesWalkMultiTool(t *testing.T) {
	if n := Count(core.NullTool{}); n != 0 {
		t.Fatalf("NullTool violations = %d, want 0", n)
	}
	if lines := Lines(core.NullTool{}); lines != nil {
		t.Fatalf("NullTool lines = %q, want none", lines)
	}
	a := stubTool{rep: &Report{Tool: "jasan"}}
	a.rep.Add(Violation{Kind: "heap-buffer-overflow", PC: 0x10, Addr: 0x2000, Width: 1, Shadow: 0xf9})
	b := stubTool{rep: &Report{Tool: "jcfi"}}
	b.rep.Add(Violation{Kind: "forward-edge", PC: 0x20, Target: 0x30})
	b.rep.Total += 2 // two more counted past the storage cap
	mt := core.NewMultiTool(a, core.NullTool{}, b)
	if n := Count(mt); n != 4 {
		t.Fatalf("MultiTool violations = %d, want 4", n)
	}
	// MultiTool joins its tools' report lines in tool order.
	want := "jasan: heap-buffer-overflow: 1-byte access at 0x2000 (pc 0x10, shadow 0xf9)\n" +
		"jcfi: forward-edge: transfer to 0x30 (pc 0x20)"
	if got := strings.Join(Lines(mt), "\n"); got != want {
		t.Fatalf("MultiTool lines =\n%s\nwant\n%s", got, want)
	}
}

func TestViolationString(t *testing.T) {
	for _, c := range []struct {
		v    Violation
		want string
	}{
		{Violation{Tool: "jmsan", Kind: "uninitialized-read", PC: 0x40, Addr: 0x2000000f, Width: 1},
			"jmsan: uninitialized-read: 1-byte access at 0x2000000f (pc 0x40)"},
		{Violation{Tool: "jtsan", Kind: "use-after-free", PC: 0x40, Addr: 0x20000004, Width: 8, Object: 0x20000000, Gen: 1},
			"jtsan: use-after-free: 8-byte access at 0x20000004 (pc 0x40, chunk 0x20000000, gen 1)"},
		{Violation{Tool: "jtsan", Kind: "double-free", PC: 0x40, Addr: 0x20000000, Object: 0x20000000, Gen: 1},
			"jtsan: double-free: free(0x20000000) (pc 0x40, gen 1)"},
		{Violation{Tool: "jcfi", Kind: "return-mismatch", PC: 0x40, Target: 0x58},
			"jcfi: return-mismatch: transfer to 0x58 (pc 0x40)"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestReportCapsStorageButCountsAll(t *testing.T) {
	r := Report{Tool: "jasan"}
	for i := 0; i < MaxStored+5; i++ {
		if err := r.Add(Violation{PC: uint64(i)}); err != nil {
			t.Fatalf("recovering report returned %v", err)
		}
	}
	if r.Total != MaxStored+5 || len(r.Violations) != MaxStored {
		t.Fatalf("total %d, stored %d; want %d, %d",
			r.Total, len(r.Violations), MaxStored+5, MaxStored)
	}
	if last := r.Violations[MaxStored-1]; last.PC != MaxStored-1 || last.Tool != "jasan" {
		t.Fatalf("last stored violation %+v, want the earliest ones kept, owner-stamped", last)
	}
}

func TestReportHaltOnErrorFault(t *testing.T) {
	r := Report{Tool: "jcfi", HaltOnError: true}
	err := r.Add(Violation{Kind: "forward-edge", PC: 0x400100, Target: 0x400203})
	f, ok := err.(*vm.Fault)
	if !ok || f.PC != 0x400100 || f.Addr != 0x400203 || f.Kind != "jcfi: forward-edge" {
		t.Fatalf("halting Add returned %#v", err)
	}
	if r.Total != 1 || len(r.Violations) != 1 {
		t.Fatalf("halting Add did not record: total %d", r.Total)
	}
}

func TestLogBoundsDistinctRecords(t *testing.T) {
	log := NewLog()
	dropped := func() uint64 {
		log.mu.Lock()
		defer log.mu.Unlock()
		return log.dropped
	}
	for i := 0; i < 2*MaxRecords; i++ {
		log.Add(Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: uint64(i)})
	}
	if log.Len() != MaxRecords || dropped() != MaxRecords {
		t.Fatalf("Len %d, dropped %d after %d distinct records; want %d, %d",
			log.Len(), dropped(), 2*MaxRecords, MaxRecords, MaxRecords)
	}
	// A repeat of a retained record still counts; it is not a drop.
	log.Add(Violation{Tool: "jasan", Kind: "heap-buffer-overflow", PC: 0})
	if log.Total() != MaxRecords+1 || dropped() != MaxRecords {
		t.Fatalf("Total %d, dropped %d after a repeat; want %d, %d",
			log.Total(), dropped(), MaxRecords+1, MaxRecords)
	}
}

func TestRenderASanStyle(t *testing.T) {
	log := NewLog()
	log.Add(Violation{
		Tool: "jasan", Kind: "heap-buffer-overflow", PC: 0x400124,
		Module: "bug", Func: "main", FuncOff: 0xb6,
		Addr: 0x20000022, Width: 1, Shadow: 0xf9, Object: 0x20000010,
		Rule: "MEM_ACCESS", CostCenter: "mem-check",
	})
	out := Render(log)
	for _, want := range []string{
		"==janitizer== ERROR: jasan: heap-buffer-overflow (CWE-122)",
		"in main+0xb6 [bug]",
		"access of size 1; shadow byte 0xf9",
		"rule MEM_ACCESS, cost center mem-check",
		"SUMMARY: 1 distinct violation(s), 1 report(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	if got := Render(NewLog()); got != "==janitizer== no violations detected\n" {
		t.Fatalf("empty render = %q", got)
	}
}

func TestModuleSymbolizer(t *testing.T) {
	mod, err := cc.Compile(`
int helper(int n) { return n + 3; }
int main() { return helper(4); }
`, cc.Options{Module: "symtest", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	syms := mod.FuncSymbols()
	if len(syms) == 0 {
		t.Skip("module carries no function symbols at this SymLevel")
	}
	const base = 0x10000
	sym := NewModuleSymbolizer(mod, base)
	for _, fs := range syms {
		m, fn, off, ok := sym.Symbolize(base + fs.Addr + 1)
		if !ok {
			t.Fatalf("no symbol for %s+1", fs.Name)
		}
		if m != mod.Name || fn != fs.Name || off != 1 {
			t.Fatalf("Symbolize(%s+1) = %s/%s+%d", fs.Name, m, fn, off)
		}
	}
	if _, _, _, ok := sym.Symbolize(base - 4); ok {
		t.Fatal("symbolized an address below the module")
	}
}
