package core_test

import (
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/jasan"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
	"repro/internal/vm"
)

const heapLoop = `
int main() {
    int *p = malloc(64);
    int s = 0;
    for (int i = 0; i < 16; i++) { p[i] = i; s += p[i]; }
    free(p);
    return s & 127;
}`

// translate runs heapLoop under tool, with its static rules (hit path) or
// without (miss path), and returns every translated block and the cycles.
func translate(t *testing.T, tool core.Tool, hit bool) (map[uint64]*vm.Block, uint64) {
	t.Helper()
	main, err := cc.Compile(heapLoop, cc.Options{Module: "prog", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	files := map[string]*rules.File{}
	if hit {
		if files, err = core.AnalyzeProgram(main, reg, tool); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.Load(main, reg, tool, files, core.Options{MaxInstrs: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s.M.Blocks().Blocks(), s.M.Cycles
}

// TestMultiToolSkipsNilPlans: composing a nil-plan tool with a planning
// tool emits exactly what the planning tool emits alone.
func TestMultiToolSkipsNilPlans(t *testing.T) {
	newJASan := func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) }
	for _, hit := range []bool{true, false} {
		want, wantCycles := translate(t, newJASan(), hit)
		mixed := core.NewMultiTool(core.NullTool{}, newJASan(), core.NullTool{})
		got, gotCycles := translate(t, mixed, hit)
		if len(got) != len(want) {
			t.Fatalf("hit=%v: %d blocks translated, want %d", hit, len(got), len(want))
		}
		meta := 0
		for start, w := range want {
			g := got[start]
			if g == nil || !reflect.DeepEqual(g.Code, w.Code) {
				t.Errorf("hit=%v: block %#x differs from the planning tool's", hit, start)
			}
			for _, c := range w.Code {
				if c.Meta {
					meta++
				}
			}
		}
		if meta == 0 {
			t.Errorf("hit=%v: planning tool emitted no instrumentation", hit)
		}
		if gotCycles != wantCycles {
			t.Errorf("hit=%v: cycles = %d, want %d", hit, gotCycles, wantCycles)
		}
	}
	allNil := core.NewMultiTool(core.NullTool{}, core.NullTool{})
	bc := &dbm.BlockContext{}
	if allNil.PlanStatic(bc, allNil.BlockRules(bc)) != nil {
		t.Error("composition of nil plans is not nil")
	}
}
