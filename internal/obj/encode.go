package obj

import (
	"errors"

	"repro/internal/wire"
)

// Binary serialisation of JEF modules over the shared codec (internal/wire):
// magic, fixed header, then counted tables.

// Magic identifies a serialised JEF module.
var Magic = [4]byte{'J', 'E', 'F', '1'}

// ErrBadMagic is returned when unmarshalling data that is not a JEF module.
var ErrBadMagic = errors.New("obj: bad magic (not a JEF module)")

// ErrMalformedModule is wrapped by every Unmarshal failure past the magic
// check: truncated tables, unreasonable counts, or trailing garbage.
// Robustness harnesses (internal/fuzz) assert errors.Is(err,
// ErrMalformedModule) so that hostile inputs are rejected with a typed
// error rather than a panic or a silently-truncated module.
var ErrMalformedModule = errors.New("obj: malformed module")

// Unmarshal table-count sanity caps. A hostile header can declare counts
// far beyond what any real module contains; entries are length-checked
// individually, but capping the counts up front bounds the work (and
// allocation) a malformed module can demand.
const (
	maxSections = 1 << 20
	maxSymbols  = 1 << 24
	maxImports  = 1 << 20
	maxRelocs   = 1 << 24
	maxNeeded   = 1 << 16
)

// Marshal serialises the module.
func (m *Module) Marshal() []byte {
	size := 64 + len(m.Name) // a capacity hint: section data dominates
	for i := range m.Sections {
		size += 17 + len(m.Sections[i].Name) + len(m.Sections[i].Data)
	}
	w := wire.NewWriter(Magic, size)
	w.Str(m.Name)
	w.U8(uint8(m.Type))
	w.Bool(m.PIC)
	w.U8(uint8(m.SymLevel))
	w.U64(m.Base)
	w.U64(m.Entry)

	w.U32(uint32(len(m.Sections)))
	for i := range m.Sections {
		s := &m.Sections[i]
		w.Str(s.Name)
		w.U64(s.Addr)
		w.U8(s.Flags)
		w.Blob(s.Data)
	}
	w.U32(uint32(len(m.Symbols)))
	for _, s := range m.Symbols {
		w.Str(s.Name)
		w.U64(s.Addr)
		w.U64(s.Size)
		w.U8(uint8(s.Kind))
		w.Bool(s.Exported)
	}
	w.U32(uint32(len(m.Imports)))
	for _, im := range m.Imports {
		w.Str(im.Name)
		w.U64(im.PLT)
		w.U64(im.GOT)
	}
	w.U32(uint32(len(m.Relocs)))
	for _, r := range m.Relocs {
		w.U8(uint8(r.Kind))
		w.U64(r.Where)
		w.Str(r.Sym)
	}
	w.U32(uint32(len(m.Needed)))
	for _, n := range m.Needed {
		w.Str(n)
	}
	return w
}

// Unmarshal deserialises a module from data. Each table's minimum entry
// size (its fixed-width fields plus 4 per length prefix) bounds its count
// by the bytes left.
func Unmarshal(data []byte) (*Module, error) {
	r, ok := wire.NewReader(data, Magic, ErrMalformedModule)
	if !ok {
		return nil, ErrBadMagic
	}
	m := &Module{}
	m.Name = r.Str()
	m.Type = ModuleType(r.U8())
	m.PIC = r.Bool()
	m.SymLevel = SymTabLevel(r.U8())
	m.Base = r.U64()
	m.Entry = r.U64()
	m.Sections = wire.Table(r, "section", maxSections, 17, func(s *Section) {
		s.Name = r.Str()
		s.Addr = r.U64()
		s.Flags = r.U8()
		s.Data = r.Blob()
	})
	m.Symbols = wire.Table(r, "symbol", maxSymbols, 22, func(s *Symbol) {
		s.Name = r.Str()
		s.Addr = r.U64()
		s.Size = r.U64()
		s.Kind = SymKind(r.U8())
		s.Exported = r.Bool()
	})
	m.Imports = wire.Table(r, "import", maxImports, 20, func(im *Import) {
		im.Name = r.Str()
		im.PLT = r.U64()
		im.GOT = r.U64()
	})
	m.Relocs = wire.Table(r, "reloc", maxRelocs, 13, func(rel *Reloc) {
		rel.Kind = RelocKind(r.U8())
		rel.Where = r.U64()
		rel.Sym = r.Str()
	})
	m.Needed = wire.Table(r, "dependency", maxNeeded, 4, func(n *string) {
		*n = r.Str()
	})
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
