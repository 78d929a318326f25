// Command jrun executes a JEF program under Janitizer's hybrid dynamic
// modifier: it loads the program and its dependencies, picks up any .jrw
// rewrite-rule files written by the janitizer static analyzer, and runs the
// chosen security tool — falling back to pure dynamic analysis for modules
// without rules, exactly as the framework prescribes.
//
// Usage:
//
//	jrun [-tool name] [-libdir dir] [-rules dir] [-stats] [-profile] [-report] main.jef
//
// -tool takes any internal/registry name or alias (jasan, comprehensive, ...);
// -rules supplies the <module>.<canonical name>.jrw files janitizer wrote.
//
// -profile attributes every executed cycle to its originating rule kind and
// prints the per-cost-center table to stderr after the run; attribution
// observes the cycle model without changing it, so measurements with and
// without -profile are identical.
//
// -report replaces the raw per-trap violation lines with structured
// diagnostics: deduplicated, CWE-classified, and symbolized to
// function+offset through the loaded modules' symbol tables, rendered as
// ASan-style report blocks (internal/diag).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/jefdir"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

func main() {
	toolName := flag.String("tool", "jasan", "tool configuration: "+registry.Usage(false))
	libdir := flag.String("libdir", "", "directory of dependency .jef modules")
	rulesDir := flag.String("rules", "", "directory of .jrw rewrite-rule files")
	stats := flag.Bool("stats", false, "print cycle and coverage statistics")
	profile := flag.Bool("profile", false, "print per-rule cost-center attribution")
	reportFlag := flag.Bool("report", false, "print structured violations as an ASan-style symbolized report")
	maxInstrs := flag.Uint64("max-instrs", 1_000_000_000, "instruction budget")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("jrun"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jrun [flags] main.jef")
		os.Exit(2)
	}
	entry, err := registry.Lookup(*toolName)
	if err != nil {
		fatal(err)
	}
	tool := entry.New()
	if _, ok := tool.(core.ArtifactTool); ok {
		fatal(fmt.Errorf("tool %q produces analysis artifacts, not executable rules", *toolName))
	}
	main, err := jefdir.ReadModule(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	reg, err := jefdir.Load(*libdir)
	if err != nil {
		fatal(err)
	}

	files := map[string]*rules.File{}
	if *rulesDir != "" {
		entries, err := os.ReadDir(*rulesDir)
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "."+entry.Name+".jrw") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*rulesDir, e.Name()))
			if err != nil {
				fatal(err)
			}
			f, err := rules.Unmarshal(data)
			if err != nil {
				fatal(err)
			}
			files[f.Module] = f
		}
	}

	s, err := core.Load(main, reg, tool, files, core.Options{MaxInstrs: *maxInstrs, Out: os.Stdout})
	if err != nil {
		fatal(err)
	}
	m, rt := s.M, s.RT
	var prof *telemetry.Profile
	if *profile {
		prof = &telemetry.Profile{}
		rt.DBM.Prof = prof
	}
	runErr := s.Run()
	if *reportFlag {
		// Structured path: dedupe, symbolize against the loaded image, and
		// render ASan-style blocks instead of the raw per-trap lines.
		dlog := diag.NewLog()
		diag.Collect(dlog, tool, diag.NewProcessSymbolizer(s.Proc), telemetry.SpanContext{})
		fmt.Fprint(os.Stderr, diag.Render(dlog))
	} else {
		for _, line := range diag.Lines(tool) {
			fmt.Fprintln(os.Stderr, line)
		}
		if n := diag.Unstored(tool); n > 0 {
			fmt.Fprintln(os.Stderr, "==janitizer== "+diag.UnstoredNote(n))
		}
	}
	if prof != nil {
		fmt.Fprint(os.Stderr, prof.Table())
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "cycles=%d instrs=%d blocks: static=%d noop=%d fallback=%d (%.1f%% dynamic)\n",
			m.Cycles, m.Instrs,
			rt.Coverage.StaticInstrumented, rt.Coverage.StaticNoOp, rt.Coverage.Fallback,
			100*rt.Coverage.DynamicFraction())
	}
	if runErr != nil {
		fatal(runErr)
	}
	os.Exit(int(m.ExitStatus & 0xff))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jrun:", err)
	os.Exit(1)
}
