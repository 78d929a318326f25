package rules

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleFile() *File {
	return &File{
		Module: "libx.jef",
		Rules: []Rule{
			{ID: MemAccess, BBAddr: 0x100, Instr: 0x104, Data: [4]uint64{1, 2, 0, 0}},
			{ID: MemAccess, BBAddr: 0x100, Instr: 0x10c, Data: [4]uint64{3, 0, 0, 0}},
			{ID: NoOp, BBAddr: 0x200},
			{ID: PoisonCanary, BBAddr: 0x300, Instr: 0x30a, Data: [4]uint64{14, 0xfffffff8, 0, 0}},
		},
	}
}

func TestFileRoundtrip(t *testing.T) {
	f := sampleFile()
	got, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("XXXX....")); !errors.Is(err, ErrBadRuleFile) {
		t.Errorf("bad magic: %v", err)
	}
	data := sampleFile().Marshal()
	for n := 4; n < len(data); n += 5 {
		if _, err := Unmarshal(data[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	data := append(sampleFile().Marshal(), 0, 0)
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadRuleFile) {
		t.Fatalf("trailing bytes: got %v, want ErrBadRuleFile", err)
	}
}

func TestUnmarshalRejectsCountBeyondData(t *testing.T) {
	data := sampleFile().Marshal()
	// The rule count follows the magic and the length-prefixed name.
	binary.LittleEndian.PutUint32(data[4+4+len("libx.jef"):], 1<<20)
	if _, err := Unmarshal(data); !errors.Is(err, ErrBadRuleFile) {
		t.Fatalf("count beyond data: got %v, want ErrBadRuleFile", err)
	}
}

func TestFileRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		file := &File{Module: "m"}
		for i, n := 0, r.Intn(20); i < n; i++ {
			file.Rules = append(file.Rules, Rule{
				ID:     ID(1 + r.Intn(10)),
				BBAddr: uint64(r.Uint32()),
				Instr:  uint64(r.Uint32()),
				Data: [4]uint64{r.Uint64(), r.Uint64(),
					r.Uint64(), r.Uint64()},
			})
		}
		got, err := Unmarshal(file.Marshal())
		return err == nil && reflect.DeepEqual(got, file)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableNonPIC(t *testing.T) {
	tab := NewTable(sampleFile(), 0)
	rs, ok := tab.BlockRules(0x100)
	if !ok || len(rs) != 2 {
		t.Fatalf("block 0x100: ok=%v rules=%d", ok, len(rs))
	}
	if _, ok := tab.BlockRules(0x200); !ok {
		t.Fatal("NoOp block must hit in the table")
	}
	if _, ok := tab.BlockRules(0x999); ok {
		t.Fatal("unknown block must miss")
	}
	if got := tab.InstrRules(0x104); len(got) != 1 || got[0].ID != MemAccess {
		t.Fatalf("InstrRules(0x104) = %v", got)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
}

// TestTablePICAdjustment checks Fig. 5a step 4: all addresses shift by the
// module load base, and lookups by run-time address hit.
func TestTablePICAdjustment(t *testing.T) {
	const base = 0x1000_0000
	tab := NewTable(sampleFile(), base)
	if _, ok := tab.BlockRules(0x100); ok {
		t.Fatal("link-time address should miss after adjustment")
	}
	rs, ok := tab.BlockRules(base + 0x100)
	if !ok || len(rs) != 2 {
		t.Fatalf("run-time address miss: ok=%v", ok)
	}
	for _, r := range rs {
		if r.Instr < base {
			t.Errorf("instr addr %#x not adjusted", r.Instr)
		}
	}
	blocks := tab.Blocks()
	if len(blocks) != 3 || blocks[0] != base+0x100 {
		t.Fatalf("Blocks() = %#x", blocks)
	}
}

// TestTablesDoNotOverlap models footnote 2: two modules with identical
// link-time layouts loaded at different bases produce disjoint run-time key
// sets.
func TestTablesDoNotOverlap(t *testing.T) {
	f := sampleFile()
	t1 := NewTable(f, 0x1000_0000)
	t2 := NewTable(f, 0x1010_0000)
	for _, b := range t1.Blocks() {
		if _, ok := t2.BlockRules(b); ok {
			t.Fatalf("address %#x present in both tables", b)
		}
	}
}

func TestPackLiveness(t *testing.T) {
	v := PackLiveness(0xbeef, true, []uint8{3, 9, 15})
	regs, flags, free := UnpackLiveness(v)
	if regs != 0xbeef || !flags {
		t.Fatalf("regs=%#x flags=%v", regs, flags)
	}
	if len(free) != 3 || free[0] != 3 || free[1] != 9 || free[2] != 15 {
		t.Fatalf("free = %v", free)
	}
	// No free regs.
	regs, flags, free = UnpackLiveness(PackLiveness(0, false, nil))
	if regs != 0 || flags || free != nil {
		t.Fatalf("empty pack: %v %v %v", regs, flags, free)
	}
	// Property: roundtrip for random inputs.
	prop := func(regs uint16, flags bool, f1, f2 uint8) bool {
		free := []uint8{f1 % 16, f2 % 16}
		gr, gf, gfree := UnpackLiveness(PackLiveness(regs, flags, free))
		return gr == regs && gf == flags && len(gfree) == 2 &&
			gfree[0] == free[0] && gfree[1] == free[1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRuleStrings(t *testing.T) {
	r := Rule{ID: PoisonCanary, BBAddr: 0x40275f, Instr: 0x402772}
	s := r.String()
	if !strings.Contains(s, "POISON_CANARY") || !strings.Contains(s, "0x402772") {
		t.Errorf("rule string = %q", s)
	}
	if ID(999).String() != "RULE(999)" {
		t.Error("unknown ID string wrong")
	}
}
