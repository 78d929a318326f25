// Package fuzz is the coverage-guided differential fuzzing subsystem: the
// continuous-correctness tooling behind the paper's "comprehensive security"
// claim. It fuzzes the vertical stack (jcc -> obj -> loader -> DBM -> tools)
// over two input domains with three oracles:
//
//   - Domain A (source): safe-by-construction MiniC programs from
//     internal/fuzz/gen. Oracle 1 (differential): -O0, -O2, -O2 without
//     ipa-ra and PIC builds must produce identical results natively and
//     under JASan, JMSan, JTSan and JCFI, with the tools silent. Oracle 3
//     (detection): planted heap bugs (gen.Plant) must trip JASan, planted
//     uninitialized reads must trip JMSan, and planted temporal bugs
//     (use-after-free, double free) must trip JTSan — each with elision
//     both off and on.
//   - Domain B (module): byte/structure-mutated serialised JEF modules.
//     Oracle 2 (robustness): the obj deserialiser, cfg disassembler,
//     analysis pipeline, loader and machine must return typed errors —
//     never panic — within a bounded step budget.
//
// Coverage feedback comes from the stack itself: the machine's
// executed-block hook and the dynamic modifier's block discovery, folded
// into metrics.Bitmap, drive an energy-based corpus scheduler with
// novelty-gated seed retention (corpus.go). Campaigns are deterministic:
// same seed, same case count => byte-identical reports at any worker count
// (campaign.go).
package fuzz

import (
	"bytes"
	"fmt"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/fuzz/gen"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obj"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Coverage feature salts, keeping the domains' feature spaces apart in the
// shared bitmap.
const (
	featNativeBlock uint64 = iota + 1
	featDBMBlock
	featStage
	featErrClass
	featShape
)

// feature folds a salted value into one bitmap feature.
func feature(salt, v uint64) uint64 {
	return metrics.Mix64(salt)<<1 ^ v
}

// SourceResult is the verdict on one source-domain case.
type SourceResult struct {
	// Violations lists oracle failures: compile errors, run faults,
	// differential mismatches, or tool noise on a safe program.
	Violations []string
	// PlantedCaught reports whether JASan flagged a planted-bug program.
	PlantedCaught bool
	// OverBudget is set when a run exhausted the per-case step budget;
	// the case is discarded without a verdict.
	OverBudget bool
	// Cov is the coverage the case observed (native blocks + DBM blocks).
	Cov *metrics.Bitmap
}

// runOutcome is one execution's observables.
type runOutcome struct {
	exit       int64
	out        string
	err        error
	overBudget bool
}

// run executes mod natively when tool is nil, else under tool through the
// hybrid runtime after its static analysis, returning the outcome and the
// tool's violation count. cov, when non-nil, accumulates executed-block
// coverage from the machine's block hook, salted apart for native runs and
// runs under a tool.
func run(mod *obj.Module, reg loader.Registry, tool core.Tool,
	budget uint64, cov *metrics.Bitmap) (runOutcome, int) {

	var files map[string]*rules.File
	if tool != nil {
		var err error
		if files, err = core.AnalyzeProgram(mod, reg, tool); err != nil {
			return runOutcome{err: err}, 0
		}
	}
	var buf bytes.Buffer
	s, err := core.Load(mod, reg, tool, files, core.Options{MaxInstrs: budget, Out: &buf})
	if err != nil {
		return runOutcome{err: err}, 0
	}
	if cov != nil {
		salt := featNativeBlock
		if s.RT != nil {
			salt = featDBMBlock
		}
		s.M.BlockHook = func(pc uint64) { cov.Add(feature(salt, pc)) }
	}
	err = s.Run()
	return runOutcome{exit: s.M.ExitStatus, out: buf.String(), err: err,
		overBudget: vm.IsBudget(err)}, core.Violations(tool)
}

// Libj returns the shared runtime library registry every generated program
// links against.
func Libj() (loader.Registry, error) {
	lj, err := libj.Module()
	if err != nil {
		return nil, err
	}
	return loader.Registry{libj.Name: lj}, nil
}

// CheckSource runs the full source-domain oracle on one program with the
// given per-run step budget. Programs with planted bugs skip the
// differential comparison (they are unsafe by design) and report only
// whether JASan caught the bug.
func CheckSource(p *gen.Prog, budget uint64) *SourceResult {
	res := &SourceResult{Cov: &metrics.Bitmap{}}
	src := p.Render()
	reg, err := Libj()
	if err != nil {
		res.Violations = append(res.Violations, "libj: "+err.Error())
		return res
	}

	compile := func(name string, opts cc.Options) *obj.Module {
		opts.Module = "p"
		mod, err := cc.Compile(src, opts)
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("compile-%s: %v", name, err))
			return nil
		}
		return mod
	}

	if len(p.Planted) > 0 {
		o2 := compile("O2", cc.Options{O2: true})
		if o2 == nil {
			return res
		}
		// The detecting tool depends on the planted class: read-before-write
		// bugs are JMSan's to catch, temporal bugs (use-after-free, double
		// free) are JTSan's, and the remaining heap-safety bugs JASan's
		// (uninitialized and temporal accesses are in bounds, so JASan stays
		// silent on them by design).
		uninit, temporal := false, false
		for _, b := range p.Planted {
			switch b {
			case gen.BugUninitRead.String():
				uninit = true
			case gen.BugUseAfterFree.String(), gen.BugDoubleFree.String():
				temporal = true
			}
		}
		sanitizer := "jasan"
		switch {
		case temporal:
			sanitizer = "jtsan"
		case uninit:
			sanitizer = "jmsan"
		}
		plain, elide := registry.MustNew(sanitizer), registry.MustNew(sanitizer+"-elide")
		out, n := run(o2, reg, plain, budget, res.Cov)
		// A planted store corrupts real memory (allocator metadata
		// included), so the run may spin to budget exhaustion *after* the
		// detection — the verdict only needs the report.
		res.PlantedCaught = n > 0
		if !res.PlantedCaught && out.overBudget {
			res.OverBudget = true
			return res
		}
		// Structured-diagnostics oracle: every raw report must convert into
		// a fully classified Violation record (kind, CWE, rule attribution)
		// with the totals agreeing. Violation strings stay deterministic so
		// campaign reports remain byte-identical across worker counts.
		if res.PlantedCaught {
			dlog := diag.NewLog()
			if got := diag.Collect(dlog, plain, nil, telemetry.SpanContext{}); got != n {
				res.Violations = append(res.Violations,
					fmt.Sprintf("diag-oracle: %d structured records for %d raw reports", got, n))
			}
			for _, v := range dlog.Entries() {
				if v.Kind == "" || v.CWE == "" || v.Rule == "" || v.CostCenter == "" {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"diag-oracle: unclassified record tool=%s kind=%q cwe=%q rule=%q",
						v.Tool, v.Kind, v.CWE, v.Rule))
				}
			}
		}
		// Oracle 3 under elision: the VSA proofs must never remove the
		// check that catches the planted bug. Catching with elision off
		// but missing with it on is a soundness regression.
		outE, nE := run(o2, reg, elide, budget, res.Cov)
		if res.PlantedCaught && nE == 0 {
			if outE.overBudget {
				res.OverBudget = true
			} else {
				res.Violations = append(res.Violations,
					"elide-regression: planted bug caught without elision but missed with it")
			}
		}
		return res
	}

	o0 := compile("O0", cc.Options{})
	o2 := compile("O2", cc.Options{O2: true})
	o2noipa := compile("O2-noipa", cc.Options{O2: true, NoIPARA: true})
	pic := compile("O2-pic", cc.Options{O2: true, PIC: true})
	if o0 == nil || o2 == nil || o2noipa == nil || pic == nil {
		return res
	}

	want, _ := run(o0, reg, nil, budget, res.Cov)
	if want.overBudget {
		res.OverBudget = true
		return res
	}
	if want.err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("run-O0: %v", want.err))
		return res
	}
	for _, alt := range []struct {
		name string
		mod  *obj.Module
	}{{"O2", o2}, {"O2-noipa", o2noipa}, {"O2-pic", pic}} {
		got, _ := run(alt.mod, reg, nil, budget, nil)
		if got.overBudget {
			res.OverBudget = true
			return res
		}
		if got.err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("run-%s: %v", alt.name, got.err))
			continue
		}
		if got.exit != want.exit || got.out != want.out {
			res.Violations = append(res.Violations,
				fmt.Sprintf("diff-%s: exit %d out %q != O0 exit %d out %q",
					alt.name, got.exit, got.out, want.exit, want.out))
		}
	}

	// Elision on/off agreement rides the shared O0 baseline: every entry —
	// with or without VSA proofs, at either optimisation level — must match
	// the same expected output with zero tool violations.
	for _, tc := range []struct {
		name string
		mod  *obj.Module
		tool core.Tool
	}{
		{"jasan", o2, registry.MustNew("jasan")},
		{"jasan-scev", o2, registry.MustNew("jasan-scev")},
		{"jasan-elide", o2, registry.MustNew("jasan-elide")},
		{"jasan-elide-O0", o0, registry.MustNew("jasan-elide")},
		{"jcfi", o2, registry.MustNew("jcfi")},
		{"jcfi-narrow", o2, registry.MustNew("jcfi-narrow")},
		{"jmsan", o2, registry.MustNew("jmsan")},
		{"jmsan-elide", o2, registry.MustNew("jmsan-elide")},
		{"jtsan", o2, registry.MustNew("jtsan")},
		{"jtsan-elide", o2, registry.MustNew("jtsan-elide")},
	} {
		got, n := run(tc.mod, reg, tc.tool, budget, res.Cov)
		if got.overBudget {
			res.OverBudget = true
			return res
		}
		if got.err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("tool-%s: %v", tc.name, got.err))
			continue
		}
		if got.exit != want.exit || got.out != want.out {
			res.Violations = append(res.Violations,
				fmt.Sprintf("diff-%s: exit %d out %q != O0 exit %d out %q",
					tc.name, got.exit, got.out, want.exit, want.out))
		}
		if n != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("noise-%s: %d violations on a safe program", tc.name, n))
		}
	}
	return res
}
