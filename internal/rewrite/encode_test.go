package rewrite

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// capturedPlans returns real plans (jasan over workProg) for codec tests.
func capturedPlans(t testing.TB) map[string]*Plan {
	t.Helper()
	main, reg := buildProgram(t, workProg)
	_, plans := captureFor(t, main, reg, jasanTool)
	if len(plans) == 0 {
		t.Fatal("no plans captured")
	}
	return plans
}

func TestPlanRoundTrip(t *testing.T) {
	for name, p := range capturedPlans(t) {
		b := p.Marshal()
		q, err := ReadPlan(b)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: round-tripped plan invalid: %v", name, err)
		}
		if q.Module != p.Module || q.Tool != p.Tool || q.ModuleID != p.ModuleID ||
			q.PIC != p.PIC || q.AssumedBase != p.AssumedBase ||
			len(q.BlockAddrs) != len(p.BlockAddrs) || len(q.Entries) != len(p.Entries) {
			t.Fatalf("%s: round trip changed plan header/counts", name)
		}
		if !bytes.Equal(q.Marshal(), b) {
			t.Fatalf("%s: re-marshal is not byte-identical", name)
		}
	}
}

func TestMarshalByteStable(t *testing.T) {
	// Two independent captures of the same program must produce the same
	// bytes: the encoding is the cache's content address.
	main, reg := buildProgram(t, workProg)
	_, p1 := captureFor(t, main, reg, jasanTool)
	_, p2 := captureFor(t, main, reg, jasanTool)
	for name := range p1 {
		a, b := p1[name].Marshal(), p2[name].Marshal()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two captures marshal differently (%d vs %d bytes)",
				name, len(a), len(b))
		}
		if !bytes.Equal(p1[name].Marshal(), a) {
			t.Fatalf("%s: marshal is not idempotent", name)
		}
	}
}

func TestReadPlanRejectsBadMagic(t *testing.T) {
	if _, err := ReadPlan([]byte("XXXXjunk")); !errors.Is(err, ErrBadPlanMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := ReadPlan(nil); !errors.Is(err, ErrBadPlanMagic) {
		t.Fatalf("empty input: got %v", err)
	}
}

func TestReadPlanRejectsTrailingBytes(t *testing.T) {
	for name, p := range capturedPlans(t) {
		b := append(p.Marshal(), 0)
		if _, err := ReadPlan(b); !errors.Is(err, ErrMalformedPlan) {
			t.Fatalf("%s: trailing byte accepted: %v", name, err)
		}
	}
}

func TestReadPlanRejectsHostileCounts(t *testing.T) {
	// A header declaring absurd counts must be rejected up front by the
	// caps, not by attempting the allocation.
	hdr := func() wire.Writer {
		w := wire.NewWriter(PlanMagic, 64)
		w.Str("m")
		w.Str("t")
		w.U32(0)      // module id
		w.Bool(false) // pic
		w.U64(0)      // base
		return w
	}

	huge := hdr()
	huge.U32(0xFFFFFFF0) // blocks
	if _, err := ReadPlan(huge); !errors.Is(err, ErrMalformedPlan) {
		t.Fatalf("hostile block count: got %v", err)
	}

	huge = hdr()
	huge.U32(0)         // blocks
	huge.U32(0xFFFFFF0) // entries
	if _, err := ReadPlan(huge); !errors.Is(err, ErrMalformedPlan) {
		t.Fatalf("hostile entry count: got %v", err)
	}

	huge = hdr()
	huge.U32(0)       // blocks
	huge.U32(1)       // entries
	huge.U64(0x1000)  // anchor
	huge.U8(1)        // anchor op
	huge.U32(1 << 20) // before frag
	if _, err := ReadPlan(huge); !errors.Is(err, ErrMalformedPlan) {
		t.Fatalf("hostile fragment length: got %v", err)
	}
}

// planCorpusSeeds returns every checked-in malformed plan image.
func planCorpusSeeds(t testing.TB) [][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "malformed", "*.jpl"))
	if err != nil || len(names) == 0 {
		t.Fatalf("malformed plan corpus missing: %v (%d files)", err, len(names))
	}
	var out [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzReadPlan mirrors the module codec's FuzzReadModule: hostile plan
// bytes must produce a typed rejection or a plan Validate can survive,
// never a panic. Explore with `go test -fuzz=FuzzReadPlan ./internal/rewrite`.
func FuzzReadPlan(f *testing.F) {
	for _, p := range capturedPlans(f) {
		f.Add(p.Marshal())
	}
	for _, m := range planCorpusSeeds(f) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(data)
		if err != nil {
			if !errors.Is(err, ErrBadPlanMagic) && !errors.Is(err, ErrMalformedPlan) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		p.Validate() // must not panic on anything ReadPlan accepted
	})
}

// TestMalformedPlanCorpusNoPanics is the checked-in-corpus acceptance test.
func TestMalformedPlanCorpusNoPanics(t *testing.T) {
	for i, data := range planCorpusSeeds(t) {
		p, err := ReadPlan(data)
		if err != nil {
			if !errors.Is(err, ErrBadPlanMagic) && !errors.Is(err, ErrMalformedPlan) {
				t.Errorf("corpus[%d]: untyped read error: %v", i, err)
			}
			continue
		}
		p.Validate()
	}
}
