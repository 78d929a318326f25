package registry_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/juliet"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// hijackAsm redirects an indirect call into the middle of a function.
const hijackAsm = `
.module prog
.entry _start
.needs libj.jef
.section .text
_start:
    la r13, victim
    add r13, 3
    calli r13
    mov r1, 0
    mov r0, 1
    syscall
victim:
    mov r0, 7
    mov r0, 8
    ret
`

// planted is a program with one known bug.
type planted int

const (
	heapOverflow    planted = iota // Juliet CWE-122 bad variant
	heapOverflowPIC                // the same, compiled position-independent
	uninitRead                     // Juliet CWE-457 bad variant
	useAfterFree                   // Juliet CWE-416 bad variant
	cfiHijack                      // forward-edge hijack
)

// plantedFor names the planted case each reporting registry entry runs on.
var plantedFor = map[string]planted{
	"jasan-hybrid":      heapOverflow,
	"jasan-hybrid-base": heapOverflow,
	"jasan-scev":        heapOverflow,
	"jasan-elide":       heapOverflow,
	"jasan-scev-elide":  heapOverflow,
	"jasan-dyn":         heapOverflow,
	"valgrind":          heapOverflow,
	"retrowrite":        heapOverflowPIC,
	"jasan+jmsan":       heapOverflow,
	"comprehensive":     heapOverflow,
	"jmsan-hybrid":      uninitRead,
	"jmsan-elide":       uninitRead,
	"jmsan-dyn":         uninitRead,
	"valgrind-def":      uninitRead,
	"jtsan-hybrid":      useAfterFree,
	"jtsan-elide":       useAfterFree,
	"jtsan-dyn":         useAfterFree,
	"valgrind-temporal": useAfterFree,
	"jcfi-hybrid":       cfiHijack,
	"jcfi-forward":      cfiHijack,
	"jcfi-narrow":       cfiHijack,
	"jcfi-dyn":          cfiHijack,
	"lockdown":          cfiHijack,
	"lockdown-weak":     cfiHijack,
	"bincfi":            cfiHijack,
}

func (p planted) module(t *testing.T) *obj.Module {
	t.Helper()
	if p == cfiHijack {
		mod, err := asm.Assemble(hijackAsm)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	src := map[planted]string{
		heapOverflow:    juliet.Suite()[0].Bad,
		heapOverflowPIC: juliet.Suite()[0].Bad,
		uninitRead:      juliet.Suite457()[0].Bad,
		useAfterFree:    juliet.Suite416()[0].Bad,
	}[p]
	mod, err := cc.Compile(src, cc.Options{Module: "case", O2: true, PIC: p == heapOverflowPIC})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// reporting reports whether tool, or a tool it composes, records
// violations.
func reporting(tool core.Tool) bool {
	switch t := tool.(type) {
	case diag.Reporter:
		return true
	case *core.MultiTool:
		for _, sub := range t.Tools {
			if reporting(sub) {
				return true
			}
		}
	}
	return false
}

// wantRule is the rule and cost center each Janitizer trap family stamps
// on its records. Retrowrite runs JASan's rules and plan, so its records
// carry JASan's; the other baselines plant no such rules and carry none.
func wantRule(v *diag.Violation) (rule, costCenter string, ok bool) {
	switch {
	case v.Tool == "valgrind" || v.Tool == "lockdown" || v.Tool == "bincfi":
		return "", "", true
	case v.Tool == "jasan" || v.Tool == "retrowrite":
		return "MEM_ACCESS", "mem-check", true
	case v.Tool == "jmsan":
		return "MEM_DEF_LOAD", "def-check", true
	case v.Tool == "jtsan" && v.Kind == "use-after-free":
		return "MEM_GEN_CHECK", "gen-check", true
	case v.Tool == "jtsan": // free-time violations
		return "QUAR_TICK", "quarantine", true
	case v.Tool == "jcfi" && v.Kind == "return-mismatch":
		return "CFI_RET", "shadow-stack", true
	case v.Tool == "jcfi":
		return "CFI_CALL", "cfi-check", true
	}
	return "", "", false
}

// TestEveryReportingEntryYieldsStructuredRecords runs every registry entry
// that records violations on a planted bug and checks that each raw
// report becomes a structured record naming its tool, kind and CWE.
func TestEveryReportingEntryYieldsStructuredRecords(t *testing.T) {
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	for _, e := range registry.All() {
		if !reporting(e.New()) {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			p, ok := plantedFor[e.Name]
			if !ok {
				t.Fatalf("no planted case for reporting entry %s", e.Name)
			}
			main := p.module(t)
			tool := e.New()
			var files map[string]*rules.File
			if e.Static {
				var err error
				if files, err = core.AnalyzeProgram(main, reg, tool); err != nil {
					t.Fatal(err)
				}
			}
			s, err := core.Load(main, reg, tool, files, core.Options{MaxInstrs: 5_000_000})
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Run() // a bad variant may fault after the report
			count := diag.Count(tool)
			if count == 0 {
				t.Fatal("planted bug not reported")
			}
			log := diag.NewLog()
			if n := diag.Collect(log, tool, diag.NewProcessSymbolizer(s.Proc), telemetry.SpanContext{}); n != count {
				t.Fatalf("Collect = %d records, raw count %d", n, count)
			}
			if log.Total() != uint64(count) {
				t.Fatalf("log holds %d reports, raw count %d", log.Total(), count)
			}
			// A single tool's records name it by the entry's family
			// ("jasan" for jasan-scev, "lockdown" for lockdown-weak).
			owner, _, _ := strings.Cut(e.Name, "-")
			_, multi := tool.(*core.MultiTool)
			for _, v := range log.Entries() {
				if v.Tool == "" || v.Kind == "" || v.CWE == "" {
					t.Fatalf("record lacks tool, kind or CWE: %+v", v)
				}
				if !multi && v.Tool != owner {
					t.Fatalf("record tool %q, want %q: %+v", v.Tool, owner, v)
				}
				if rule, costCenter, ok := wantRule(&v); ok && (v.Rule != rule || v.CostCenter != costCenter) {
					t.Fatalf("%s %s: rule %s, cost center %s; want %s, %s",
						v.Tool, v.Kind, v.Rule, v.CostCenter, rule, costCenter)
				}
			}
		})
	}
}
