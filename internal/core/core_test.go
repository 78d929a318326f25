package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
	"repro/internal/vm"
)

// markerTool records which rule source served each block — the rule
// table or its own BlockRules, which marks the blocks it serves — and tags
// one instruction kind with rules.
type markerTool struct {
	staticBlocks   []uint64
	fallbackBlocks []uint64
	initCalled     bool
}

// markerFallback is the rule markerTool's BlockRules attaches to a block's
// first instruction.
const markerFallback = rules.CustomBase

func (t *markerTool) Name() string { return "marker" }

func (t *markerTool) StaticPass(sc *StaticContext) []rules.Rule {
	var out []rules.Rule
	for _, blk := range sc.Graph.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.IsStore() {
				out = append(out, rules.Rule{
					ID: rules.MemAccess, BBAddr: blk.Start, Instr: in.Addr,
				})
			}
		}
	}
	return out
}

func (t *markerTool) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) InstrPlan {
	if rs := instrRules[bc.Start]; len(rs) > 0 && rs[0].ID == markerFallback {
		t.fallbackBlocks = append(t.fallbackBlocks, bc.Start)
	} else {
		t.staticBlocks = append(t.staticBlocks, bc.Start)
	}
	return nil
}

func (t *markerTool) BlockRules(bc *dbm.BlockContext) map[uint64][]rules.Rule {
	return map[uint64][]rules.Rule{bc.Start: {{ID: markerFallback, BBAddr: bc.Start, Instr: bc.Start}}}
}

func (t *markerTool) RuntimeInit(rt *Runtime) error {
	t.initCalled = true
	return nil
}

const prog = `
.module prog
.entry _start
.needs libj.jef
.import malloc
.section .text
_start:
    mov r1, 32
    call malloc
    mov r6, 5
    stq [r0+0], r6
    mov r1, 0
    mov r0, 1
    syscall
`

func setup(t *testing.T) (*vm.Machine, *loader.Process, loader.Registry, *markerTool) {
	t.Helper()
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	return m, loader.NewProcess(m, reg), reg, &markerTool{}
}

func TestAnalyzeModuleAddsNoOpRules(t *testing.T) {
	main, err := asm.Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	tool := &markerTool{}
	f, err := AnalyzeModule(main, tool)
	if err != nil {
		t.Fatal(err)
	}
	var mem, noop int
	covered := map[uint64]bool{}
	for _, r := range f.Rules {
		switch r.ID {
		case rules.MemAccess:
			mem++
			covered[r.BBAddr] = true
		case rules.NoOp:
			noop++
			if covered[r.BBAddr] {
				t.Errorf("NoOp on a block that already has rules: %#x", r.BBAddr)
			}
		}
	}
	if mem == 0 {
		t.Error("tool rules missing")
	}
	if noop == 0 {
		t.Error("no NoOp marking for untouched blocks")
	}
}

func TestAnalyzeProgramCoversClosure(t *testing.T) {
	main, _ := asm.Assemble(prog)
	lj, _ := libj.Module()
	reg := loader.Registry{libj.Name: lj}
	files, err := AnalyzeProgram(main, reg, &markerTool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %d, want 2 (prog + libj)", len(files))
	}
	if files[libj.Name] == nil || files["prog"] == nil {
		t.Fatal("missing rule file")
	}
}

func TestAnalyzeProgramMissingDependency(t *testing.T) {
	main, _ := asm.Assemble(".module p\n.entry f\n.needs gone.jef\n.section .text\nf: hlt")
	if _, err := AnalyzeProgram(main, loader.Registry{}, &markerTool{}); err == nil {
		t.Fatal("missing dependency accepted")
	}
}

func TestHybridClassification(t *testing.T) {
	m, proc, reg, tool := setup(t)
	main, err := asm.Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	files, err := AnalyzeProgram(main, reg, tool)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(m, proc, tool, files)
	lm, err := proc.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Table("prog") == nil || rt.Table(libj.Name) == nil {
		t.Fatal("module rule tables not built at load time")
	}
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}
	if !tool.initCalled {
		t.Error("RuntimeInit not called")
	}
	if rt.Coverage.Fallback != 0 {
		t.Errorf("fully static program had %d fallback blocks: %#x",
			rt.Coverage.Fallback, tool.fallbackBlocks)
	}
	if rt.Coverage.StaticInstrumented == 0 || rt.Coverage.StaticNoOp == 0 {
		t.Errorf("classification counts implausible: %+v", rt.Coverage)
	}
	if got := rt.Coverage.Total(); got != rt.Coverage.StaticInstrumented+
		rt.Coverage.StaticNoOp+rt.Coverage.Fallback {
		t.Errorf("Total() = %d inconsistent", got)
	}
}

func TestClassifierMissRoutesToFallback(t *testing.T) {
	m, proc, _, tool := setup(t)
	main, err := asm.Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	// No rule files at all: every block's rules must come from BlockRules.
	rt := NewRuntime(m, proc, tool, map[string]*rules.File{})
	lm, err := proc.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(lm.RuntimeAddr(main.Entry)); err != nil {
		t.Fatal(err)
	}
	if rt.Coverage.StaticInstrumented != 0 || rt.Coverage.StaticNoOp != 0 {
		t.Errorf("blocks classified static without rules: %+v", rt.Coverage)
	}
	if rt.Coverage.Fallback == 0 || len(tool.fallbackBlocks) == 0 {
		t.Error("no fallback classification")
	}
	if rt.Coverage.DynamicFraction() != 1.0 {
		t.Errorf("dynamic fraction = %f", rt.Coverage.DynamicFraction())
	}
}

// TestNilPlanPlacesBlockUnmodified checks the nil-plan rule: a tool whose
// plans are nil translates every block to exactly its application
// instructions, on the hit path (rules loaded) and on the miss path (none).
func TestNilPlanPlacesBlockUnmodified(t *testing.T) {
	main, reg := loadProg(t, prog)
	for _, hit := range []bool{true, false} {
		tool := &markerTool{}
		files := map[string]*rules.File{}
		if hit {
			var err error
			if files, err = AnalyzeProgram(main, reg, tool); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Load(main, reg, tool, files, Options{MaxInstrs: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if hit && (len(tool.staticBlocks) == 0 || len(tool.fallbackBlocks) != 0) {
			t.Fatalf("hit run: %d static, %d fallback rule sets planned",
				len(tool.staticBlocks), len(tool.fallbackBlocks))
		}
		if !hit && (len(tool.fallbackBlocks) == 0 || len(tool.staticBlocks) != 0) {
			t.Fatalf("miss run: %d static, %d fallback rule sets planned",
				len(tool.staticBlocks), len(tool.fallbackBlocks))
		}
		blocks := s.M.Blocks().Blocks()
		if len(blocks) == 0 {
			t.Fatal("no block translated")
		}
		for start, b := range blocks {
			if len(b.Code) != b.AppLen {
				t.Errorf("hit=%v block %#x: %d instructions for %d application instructions",
					hit, start, len(b.Code), b.AppLen)
				continue
			}
			next := start
			for i, c := range b.Code {
				if c.Meta || c.JumpTo != -1 || c.In.Addr != next {
					t.Errorf("hit=%v block %#x[%d] = %+v, want application instruction at %#x",
						hit, start, i, c, next)
					break
				}
				next += uint64(c.In.Size)
			}
		}
	}
}

func TestPICRuleTableAdjustment(t *testing.T) {
	// A PIC dependency's table must be keyed by run-time addresses.
	m, proc, reg, tool := setup(t)
	main, _ := asm.Assemble(prog)
	files, err := AnalyzeProgram(main, reg, tool)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(m, proc, tool, files)
	if _, err := proc.LoadProgram(main); err != nil {
		t.Fatal(err)
	}
	lj := proc.ModuleByName(libj.Name)
	tab := rt.Table(libj.Name)
	if tab.Base != lj.LoadBase {
		t.Errorf("libj table base = %#x, want load base %#x", tab.Base, lj.LoadBase)
	}
	// The malloc entry block must hit at its RUN-TIME address.
	sym := lj.FindSymbol("malloc")
	if _, hit := tab.BlockRules(lj.RuntimeAddr(sym.Addr)); !hit {
		t.Error("libj block misses at run-time address (PIC adjustment broken)")
	}
	if _, hit := tab.BlockRules(sym.Addr); hit {
		t.Error("libj block hits at link-time address (no adjustment applied)")
	}
}

func TestRuntimeInitFailure(t *testing.T) {
	m, proc, _, _ := setup(t)
	bad := &failingTool{}
	rt := NewRuntime(m, proc, bad, map[string]*rules.File{})
	main, _ := asm.Assemble(prog)
	lm, err := proc.LoadProgram(main)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(lm.RuntimeAddr(main.Entry))
	if err == nil || !strings.Contains(err.Error(), "runtime init") {
		t.Fatalf("err = %v, want runtime init failure", err)
	}
}

type failingTool struct{ markerTool }

func (t *failingTool) RuntimeInit(rt *Runtime) error {
	return &vm.Fault{Kind: "synthetic init failure"}
}

var _ = isa.Instr{}
