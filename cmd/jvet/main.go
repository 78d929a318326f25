// Command jvet is the independent proof verifier for VSA-backed check
// elision (JASan), definedness check elision (JMSan), temporal no-escape
// elision (JTSan) and indirect-branch narrowing (JCFI). It re-runs the
// static passes of the elision-enabled tool configurations over the
// evaluation workload modules, then replays every recorded vsa.Claim from
// scratch — re-deriving bounds and side conditions without the producer's
// fixpoint state — and cross-checks the proof artifact against the emitted
// rule file. It also discharges the per-function ABI axioms ("abi:<name>")
// against the exporting module's derived call-effect summary.
//
// jvet also vets the static rewriting backend: it captures the
// comprehensive configuration's rewrite plans for each workload, bakes them
// into the module closure, and re-derives every structural guarantee with
// the independent verifier in internal/rewrite — original bytes untouched
// outside pin windows, trampolines well-formed, copy region exactly the
// plan's materialisation.
//
// Exit status is nonzero when any elision or narrowing decision cannot be
// independently re-proven: an unsound proof must never reach a run.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/jlint"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/registry"
	"repro/internal/rewrite"
	"repro/internal/spec"
	"repro/internal/vsa"
)

func main() {
	bench := flag.String("bench", "", "comma-separated workload names (default: all)")
	verbose := flag.Bool("v", false, "print per-module claim counts")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("jvet"))
		return
	}

	names := spec.Names()
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}

	v := &vetter{
		verbose: *verbose,
		done:    map[string]bool{},
		results: map[string]*vsa.Result{},
	}
	for _, name := range names {
		w := spec.ByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "jvet: unknown workload %q\n", name)
			os.Exit(2)
		}
		if err := v.vetWorkload(w); err != nil {
			fmt.Fprintf(os.Stderr, "jvet: %s: %v\n", name, err)
			os.Exit(2)
		}
	}

	fmt.Printf("jvet: %d module/tool passes, %d claims replayed, %d rewritten modules verified, %d lint reports re-derived (%d findings), %d violations\n",
		v.passes, v.claims, v.rewrites, v.reports, v.alarms, len(v.violations))
	if len(v.violations) > 0 {
		for _, msg := range v.violations {
			fmt.Fprintf(os.Stderr, "jvet: VIOLATION: %s\n", msg)
		}
		os.Exit(1)
	}
}

// vetSchemes are the elision-enabled configurations whose proofs jvet
// replays.
var vetSchemes = []string{"jasan-elide", "jasan-scev-elide", "jcfi-narrow", "jmsan-elide", "jtsan-elide"}

type vetter struct {
	verbose    bool
	passes     int
	claims     int
	rewrites   int
	reports    int
	alarms     int
	violations []string
	// done memoizes verified (module hash, tool key) pairs — libj and
	// shared helper modules recur across workloads.
	done map[string]bool
	// results memoizes per-module analysis results for ABI discharge.
	results map[string]*vsa.Result
}

// vetWorkload builds one workload and verifies every module in its closure
// under every elision-enabled tool configuration.
func (v *vetter) vetWorkload(w *spec.Workload) error {
	main, reg, err := w.Build(false)
	if err != nil {
		return err
	}
	mods := []*obj.Module{main}
	var regNames []string
	for n := range reg {
		regNames = append(regNames, n)
	}
	sort.Strings(regNames)
	for _, n := range regNames {
		mods = append(mods, reg[n])
	}

	for _, mod := range mods {
		hash := mod.HashString()
		for _, name := range vetSchemes {
			tool := registry.MustNew(name)
			key := hash + "/" + core.ToolKey(tool)
			if v.done[key] {
				continue
			}
			v.done[key] = true
			if err := v.vetModule(mod, tool, mods); err != nil {
				return err
			}
		}
		if key := hash + "/jlint"; !v.done[key] {
			v.done[key] = true
			if err := v.vetLint(mod); err != nil {
				return err
			}
		}
	}
	return v.vetRewrite(w, main, reg)
}

// vetRewrite statically rewrites the workload's module closure from freshly
// captured plans and re-derives every structural guarantee with the
// independent verifier. Memoized by (module hash, plan bytes): a shared
// module recurs across workloads, but its plan can differ per program
// placement, so the plan encoding is part of the key.
func (v *vetter) vetRewrite(w *spec.Workload, main *obj.Module, reg loader.Registry) error {
	// The comprehensive composition is the one the bake-off, jrw and the
	// parity check run, so every tool's plan fragments are exercised.
	files, err := core.AnalyzeProgram(main, reg, registry.MustNew("comprehensive"))
	if err != nil {
		return err
	}
	plans, err := rewrite.CapturePlans(main, reg, files, registry.MustNew("comprehensive"))
	if err != nil {
		return err
	}
	rws, err := rewrite.RewriteModules(main, reg, plans)
	if err != nil {
		return err
	}
	var names []string
	for n := range rws {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mod := reg[n]
		if n == main.Name {
			mod = main
		}
		key := fmt.Sprintf("%s/rewrite/%x", mod.HashString(), sha256.Sum256(plans[n].Marshal()))
		if v.done[key] {
			continue
		}
		v.done[key] = true
		vio, err := rewrite.Verify(mod, plans[n], rws[n])
		if err != nil {
			return err
		}
		v.rewrites++
		man := rws[n].Manifest
		if v.verbose {
			fmt.Printf("jvet: %-12s rewrite: %d functions covered, %d anchors\n",
				n, len(man.Covered), man.Anchors)
		}
		for _, msg := range vio {
			v.violations = append(v.violations,
				fmt.Sprintf("rewrite %s/%s: %s", w.Name, n, msg))
		}
	}
	return nil
}

func (v *vetter) vetModule(mod *obj.Module, tool core.Tool, closure []*obj.Module) error {
	rf, ps, err := core.AnalyzeModuleProofs(mod, tool)
	if err != nil {
		return err
	}
	v.passes++
	v.claims += ps.NumClaims()
	if v.verbose {
		fmt.Printf("jvet: %-12s %-40s %4d claims\n", mod.Name, core.ToolKey(tool), ps.NumClaims())
	}
	for _, viol := range vsa.Verify(mod, ps, rf) {
		v.violations = append(v.violations, core.ToolKey(tool)+": "+viol.String())
	}
	v.dischargeAssumes(mod, ps, closure)
	return nil
}

// vetLint re-verifies the static bug detector's report for one module:
// jlint's findings — the must-alarm tier in particular — are re-derived
// from scratch and every path witness is replayed over the re-derived
// feasible CFG, the same discipline applied to elision claims.
func (v *vetter) vetLint(mod *obj.Module) error {
	rep, err := jlint.Analyze(mod)
	if err != nil {
		return err
	}
	v.reports++
	v.alarms += len(rep.Findings)
	if v.verbose {
		fmt.Printf("jvet: %-12s jlint %d must / %d may\n",
			mod.Name, len(rep.Musts()), len(rep.Mays()))
	}
	for _, viol := range jlint.VerifyReport(mod, rep) {
		v.violations = append(v.violations, "jlint: "+mod.Name+": "+viol.String())
	}
	return nil
}

// calleeSaved is what the ABI axiom promises an imported function
// preserves, besides stack balance.
var calleeSaved = analysis.RegMask(0).With(isa.R12).With(isa.R13).With(isa.FP)

// dischargeAssumes checks every "abi:<name>" axiom backing a function with
// claims: the exporting module's own derived summary for that function must
// be stack-balanced and preserve the callee-saved registers.
func (v *vetter) dischargeAssumes(mod *obj.Module, ps *vsa.ProofSet, closure []*obj.Module) {
	seen := map[string]bool{}
	for _, fp := range ps.Funcs {
		if len(fp.Claims) == 0 {
			continue
		}
		for _, a := range fp.Assumes {
			name, ok := strings.CutPrefix(a, "abi:")
			if !ok || seen[name] {
				continue
			}
			seen[name] = true
			if msg := v.dischargeOne(name, closure); msg != "" {
				v.violations = append(v.violations, fmt.Sprintf(
					"%s: axiom abi:%s backing func %#x: %s", mod.Name, name, fp.Entry, msg))
			}
		}
	}
}

func (v *vetter) dischargeOne(name string, closure []*obj.Module) string {
	found := false
	for _, exp := range closure {
		for _, s := range exp.ExportedSymbols() {
			if s.Name != name || s.Kind != obj.SymFunc {
				continue
			}
			found = true
			res := v.analysisFor(exp)
			if res.Poisoned[s.Addr] {
				return fmt.Sprintf("exporter %s: function poisoned", exp.Name)
			}
			sum := res.Summaries[s.Addr]
			if sum == nil {
				return fmt.Sprintf("exporter %s: no summary derived", exp.Name)
			}
			if !sum.Balanced {
				return fmt.Sprintf("exporter %s: not stack-balanced", exp.Name)
			}
			if sum.Preserved&calleeSaved != calleeSaved {
				return fmt.Sprintf("exporter %s: clobbers callee-saved regs", exp.Name)
			}
		}
	}
	if !found {
		return "no exporter in closure"
	}
	return ""
}

func (v *vetter) analysisFor(mod *obj.Module) *vsa.Result {
	hash := mod.HashString()
	if res := v.results[hash]; res != nil {
		return res
	}
	g, err := cfg.Build(mod)
	if err != nil {
		// An unbuildable module exports nothing provable; worst-case
		// result with every function poisoned via an empty graph.
		g = &cfg.Graph{Module: mod}
	}
	res := vsa.Analyze(mod, g, analysis.FindCanaries(g))
	v.results[hash] = res
	return res
}
