package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/vm"
)

// loadProg assembles src and returns it with a registry holding libj.
func loadProg(t *testing.T, src string) (*obj.Module, loader.Registry) {
	t.Helper()
	main, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	return main, loader.Registry{libj.Name: lj}
}

func TestLoadWiresRuntimeBeforeLoad(t *testing.T) {
	main, reg := loadProg(t, prog)
	tool := &markerTool{}
	files, err := AnalyzeProgram(main, reg, tool)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(main, reg, tool, files, Options{MaxInstrs: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// The tables are built by the module-load hook, so they exist right
	// after Load only if the runtime was wired before the load.
	if s.RT.Table(main.Name) == nil || s.RT.Table(libj.Name) == nil {
		t.Fatal("rule tables missing after Load: runtime wired after the load")
	}
	if s.Entry != s.Proc.ModuleByName(main.Name).RuntimeAddr(main.Entry) {
		t.Fatalf("Entry = %#x, not main's run-time entry", s.Entry)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !tool.initCalled || len(tool.staticBlocks) == 0 || !s.M.Halted {
		t.Fatalf("tool session did not run under the runtime: init=%v static=%d halted=%v",
			tool.initCalled, len(tool.staticBlocks), s.M.Halted)
	}
}

func TestLoadNative(t *testing.T) {
	main, reg := loadProg(t, prog)
	s, err := Load(main, reg, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.RT != nil {
		t.Fatal("native session has a runtime")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.M.Halted || s.M.ExitStatus != 0 || s.M.Instrs == 0 {
		t.Fatalf("native run: halted=%v exit=%d instrs=%d",
			s.M.Halted, s.M.ExitStatus, s.M.Instrs)
	}
}

const spin = `
.module spin
.entry _start
.section .text
_start:
    jmp _start
`

func TestLoadBudget(t *testing.T) {
	main, reg := loadProg(t, spin)
	for _, tool := range []Tool{nil, NullTool{}} {
		s, err := Load(main, reg, tool, nil, Options{MaxInstrs: 100})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); !vm.IsBudget(err) {
			t.Fatalf("tool %v: err = %v, want budget fault", tool, err)
		}
		if s.M.Instrs != 101 {
			t.Fatalf("tool %v: Instrs = %d, want 101", tool, s.M.Instrs)
		}
	}
}
