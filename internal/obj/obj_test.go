package obj

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// testModule builds a small structurally valid non-PIC executable.
func testModule() *Module {
	return &Module{
		Name:     "prog",
		Type:     Exec,
		PIC:      false,
		SymLevel: SymFull,
		Base:     0x400000,
		Entry:    0x400100,
		Sections: []Section{
			{Name: ".init", Addr: 0x400000, Data: make([]byte, 0x40), Flags: SecExec},
			{Name: ".plt", Addr: 0x400040, Data: make([]byte, 0x40), Flags: SecExec},
			{Name: ".text", Addr: 0x400100, Data: make([]byte, 0x200), Flags: SecExec},
			{Name: ".rodata", Addr: 0x400300, Data: make([]byte, 0x80)},
			{Name: ".data", Addr: 0x400380, Data: make([]byte, 0x80), Flags: SecWrite},
			{Name: ".got", Addr: 0x400400, Data: make([]byte, 0x20), Flags: SecWrite},
		},
		Symbols: []Symbol{
			{Name: "_start", Addr: 0x400100, Size: 0x20, Kind: SymFunc, Exported: true},
			{Name: "main", Addr: 0x400120, Size: 0x80, Kind: SymFunc, Exported: true},
			{Name: "helper", Addr: 0x4001a0, Size: 0x40, Kind: SymFunc},
			{Name: "table", Addr: 0x400380, Size: 0x40, Kind: SymObject},
		},
		Imports: []Import{
			{Name: "malloc", PLT: 0x400040, GOT: 0x400400},
			{Name: "free", PLT: 0x400050, GOT: 0x400408},
		},
		Relocs: []Reloc{
			{Kind: RelGotFunc, Where: 0x400400, Sym: "malloc"},
			{Kind: RelGotFunc, Where: 0x400408, Sym: "free"},
			{Kind: RelRebase, Where: 0x400380},
		},
		Needed: []string{"libj.jef"},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testModule().Validate(); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Module)
	}{
		{"no name", func(m *Module) { m.Name = "" }},
		{"bad type", func(m *Module) { m.Type = 0 }},
		{"non-PIC zero base", func(m *Module) { m.Base = 0 }},
		{"PIC with base", func(m *Module) { m.PIC = true }},
		{"overlapping sections", func(m *Module) { m.Sections[1].Addr = 0x400030 }},
		{"symbol outside sections", func(m *Module) { m.Symbols[0].Addr = 0x500000 }},
		{"reloc outside sections", func(m *Module) { m.Relocs[0].Where = 0x500000 }},
		{"reloc straddles section", func(m *Module) { m.Relocs[2].Where = 0x4003fa }},
		{"import PLT outside", func(m *Module) { m.Imports[0].PLT = 0x500000 }},
		{"entry not executable", func(m *Module) { m.Entry = 0x400380 }},
		{"entry outside", func(m *Module) { m.Entry = 0x900000 }},
	}
	for _, tt := range tests {
		m := testModule()
		tt.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid module", tt.name)
		}
	}
}

func TestSectionLookup(t *testing.T) {
	m := testModule()
	if s := m.Section(".text"); s == nil || s.Addr != 0x400100 {
		t.Fatalf("Section(.text) = %+v", s)
	}
	if s := m.Section(".nope"); s != nil {
		t.Fatalf("Section(.nope) should be nil, got %+v", s)
	}
	if s := m.SectionAt(0x400150); s == nil || s.Name != ".text" {
		t.Fatalf("SectionAt(0x400150) = %+v", s)
	}
	if s := m.SectionAt(0x400300 - 1); s == nil || s.Name != ".text" {
		t.Fatalf("SectionAt(end of .text) = %+v", s)
	}
	if s := m.SectionAt(0x999999); s != nil {
		t.Fatalf("SectionAt(outside) = %+v", s)
	}
}

func TestSymbolViews(t *testing.T) {
	m := testModule()
	if s := m.FindSymbol("main"); s == nil || s.Addr != 0x400120 {
		t.Fatalf("FindSymbol(main) = %+v", s)
	}
	if s := m.FindSymbol("nope"); s != nil {
		t.Fatalf("FindSymbol(nope) = %+v", s)
	}

	funcs := m.FuncSymbols()
	if len(funcs) != 3 {
		t.Fatalf("full symtab FuncSymbols = %d, want 3", len(funcs))
	}
	for i := 1; i < len(funcs); i++ {
		if funcs[i-1].Addr > funcs[i].Addr {
			t.Fatal("FuncSymbols not sorted by address")
		}
	}

	m.SymLevel = SymStripped
	funcs = m.FuncSymbols()
	if len(funcs) != 2 {
		t.Fatalf("stripped FuncSymbols = %d, want 2 (exported only)", len(funcs))
	}
	for _, f := range funcs {
		if !f.Exported {
			t.Errorf("stripped FuncSymbols leaked local %s", f.Name)
		}
	}

	exp := m.ExportedSymbols()
	if len(exp) != 2 {
		t.Fatalf("ExportedSymbols = %d, want 2", len(exp))
	}
}

func TestExecSections(t *testing.T) {
	m := testModule()
	exec := m.ExecSections()
	if len(exec) != 3 {
		t.Fatalf("ExecSections = %d, want 3 (.init .plt .text)", len(exec))
	}
	names := []string{exec[0].Name, exec[1].Name, exec[2].Name}
	want := []string{".init", ".plt", ".text"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ExecSections order = %v, want %v", names, want)
	}
}

func TestImportByPLT(t *testing.T) {
	m := testModule()
	if im := m.ImportByPLT(0x400050); im == nil || im.Name != "free" {
		t.Fatalf("ImportByPLT(0x400050) = %+v", im)
	}
	if im := m.ImportByPLT(0x999); im != nil {
		t.Fatalf("ImportByPLT(bogus) = %+v", im)
	}
}

func TestExtent(t *testing.T) {
	m := testModule()
	lo, span := m.Extent()
	if lo != 0x400000 {
		t.Errorf("Extent lo = %#x, want 0x400000", lo)
	}
	if span != 0x420 {
		t.Errorf("Extent span = %#x, want 0x420", span)
	}
	var empty Module
	if lo, span := empty.Extent(); lo != 0 || span != 0 {
		t.Errorf("empty Extent = %#x,%#x", lo, span)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	m := testModule()
	// Give sections distinguishable content.
	for i := range m.Sections {
		for j := range m.Sections[i].Data {
			m.Sections[i].Data[j] = byte(i*31 + j)
		}
	}
	data := m.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("nope")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("nil input: got %v", err)
	}
	// Truncation at every prefix length must error, never panic.
	data := testModule().Marshal()
	for n := 4; n < len(data); n += 7 {
		if _, err := Unmarshal(data[:n]); err == nil {
			t.Errorf("truncated at %d bytes: no error", n)
		}
	}
}

// Property: marshal/unmarshal roundtrip over randomly generated modules.
func TestMarshalRoundtripProperty(t *testing.T) {
	gen := func(r *rand.Rand) *Module {
		m := &Module{
			Name:     "m" + string(rune('a'+r.Intn(26))),
			Type:     ModuleType(1 + r.Intn(2)),
			PIC:      r.Intn(2) == 0,
			SymLevel: SymTabLevel(1 + r.Intn(3)),
			Base:     uint64(r.Uint32()),
			Entry:    uint64(r.Uint32()),
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			data := make([]byte, r.Intn(64))
			r.Read(data)
			m.Sections = append(m.Sections, Section{
				Name:  ".s" + string(rune('0'+i)),
				Addr:  uint64(r.Uint32()),
				Data:  data,
				Flags: uint8(r.Intn(4)),
			})
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Symbols = append(m.Symbols, Symbol{
				Name: "sym" + string(rune('0'+i)), Addr: uint64(r.Uint32()),
				Size: uint64(r.Intn(100)), Kind: SymKind(1 + r.Intn(2)),
				Exported: r.Intn(2) == 0,
			})
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.Imports = append(m.Imports, Import{
				Name: "imp" + string(rune('0'+i)),
				PLT:  uint64(r.Uint32()), GOT: uint64(r.Uint32()),
			})
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.Relocs = append(m.Relocs, Reloc{
				Kind: RelocKind(1 + r.Intn(2)), Where: uint64(r.Uint32()),
				Sym: "s",
			})
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			m.Needed = append(m.Needed, "dep"+string(rune('0'+i)))
		}
		return m
	}
	f := func(seed int64) bool {
		m := gen(rand.New(rand.NewSource(seed)))
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if Exec.String() != "exec" || SharedObj.String() != "shared-object" {
		t.Error("ModuleType strings wrong")
	}
	if ModuleType(9).String() != "unknown" {
		t.Error("unknown ModuleType string wrong")
	}
	if SymFull.String() != "full" || SymStripped.String() != "stripped" ||
		SymExports.String() != "exports-only" || SymTabLevel(9).String() != "unknown" {
		t.Error("SymTabLevel strings wrong")
	}
}
