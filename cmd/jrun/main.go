// Command jrun executes a JEF program under Janitizer's hybrid dynamic
// modifier: it loads the program and its dependencies, picks up any .jrw
// rewrite-rule files written by the janitizer static analyzer, and runs the
// chosen security tool — falling back to pure dynamic analysis for modules
// without rules, exactly as the framework prescribes.
//
// Usage:
//
//	jrun [-tool jasan|jmsan|jtsan|jtsan-elide|jcfi|none] [-libdir dir] [-rules dir] [-stats]
//	     [-profile] [-report] main.jef
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
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jefdir"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

func main() {
	toolName := flag.String("tool", "jasan", "security technique: jasan, jmsan, jtsan, jtsan-elide, jcfi or none")
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
	main, err := jefdir.ReadModule(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	reg, err := jefdir.Load(*libdir)
	if err != nil {
		fatal(err)
	}

	var tool core.Tool
	// report renders the tool's violations, one line each, after the run.
	var report func() []string
	switch *toolName {
	case "jasan":
		jt := jasan.New(jasan.Config{UseLiveness: true})
		tool, report = jt, func() []string { return lines(jt.Report.Violations) }
	case "jmsan":
		mt := jmsan.New(jmsan.Config{UseLiveness: true})
		tool, report = mt, func() []string { return lines(mt.Report.Violations) }
	case "jtsan", "jtsan-elide":
		tt := jtsan.New(jtsan.Config{UseLiveness: true, Elide: *toolName == "jtsan-elide"})
		tool, report = tt, func() []string { return lines(tt.Report.Violations) }
	case "jcfi":
		ct := jcfi.New(jcfi.DefaultConfig)
		tool, report = ct, func() []string { return lines(ct.Report.Violations) }
	case "none":
		tool = core.NullTool{}
		report = func() []string { return nil }
	default:
		fatal(fmt.Errorf("unknown tool %q", *toolName))
	}

	files := map[string]*rules.File{}
	if *rulesDir != "" {
		entries, err := os.ReadDir(*rulesDir)
		if err != nil {
			fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "."+*toolName+".jrw") {
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
		for _, line := range report() {
			fmt.Fprintln(os.Stderr, line)
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

// lines renders each violation as its own report line.
func lines[V fmt.Stringer](vs []V) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jrun:", err)
	os.Exit(1)
}
