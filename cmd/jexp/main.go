// Command jexp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	jexp [-scale n] [-parallel n] [-stats] [-o file] fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|soundness|elision|jmsan|jtsan|cells|obs|static|all [benchmarks...]
//
// The cells of a study run concurrently (-parallel, default GOMAXPROCS);
// static analysis is served by a shared content-addressed rule cache, so a
// module analyzed for one scheme is reused by every later figure. Output is
// deterministic at any parallelism. `jexp all` runs every paper figure even
// when one fails, reporting the failures at the end. An unknown workload
// name is rejected before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
	"repro/internal/spec"
)

func main() {
	scale := flag.Int("scale", 1, "workload iteration scale")
	parallel := flag.Int("parallel", 0,
		"concurrent grid cells per study (0: GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print analysis-service cache statistics at exit")
	out := flag.String("o", "",
		"cells/static: output path for the JSON artifact (\"-\" for stdout;\ndefault BENCH_CELLS.json / BENCH_STATIC.json)")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("jexp"))
		return
	}
	experiments.Parallel = *parallel
	args := flag.Args()
	var benches []string
	if len(args) > 1 {
		benches = args[1:]
	}

	// studies lists every experiment; the paper's figures and studies,
	// which `jexp all` runs, come first.
	const paper = 12
	studies := []struct {
		name string
		run  func() error
	}{
		{"fig7", func() error { return printFig(experiments.Fig7(*scale, benches...)) }},
		{"fig8", func() error { return printFig(experiments.Fig8(*scale, benches...)) }},
		{"fig9", func() error { return printFig(experiments.Fig9(*scale, benches...)) }},
		{"fig10", func() error {
			r, err := experiments.Fig10()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			return nil
		}},
		{"fig11", func() error { return printFig(experiments.Fig11(*scale, benches...)) }},
		{"fig12", func() error { return printFig(experiments.Fig12(*scale, benches...)) }},
		{"fig13", func() error { return printFig(experiments.Fig13(benches...)) }},
		{"fig14", func() error { return printFig(experiments.Fig14(*scale, benches...)) }},
		{"soundness", func() error {
			rs, err := experiments.Soundness(*scale)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatSoundness(rs))
			return nil
		}},
		{"elision", func() error { return printText(experiments.Elision(*scale, benches...)) }},
		{"jmsan", func() error { return printText(experiments.JMSan(*scale, benches...)) }},
		{"jtsan", func() error { return printText(experiments.JTSan(*scale, benches...)) }},
		// The evaluation matrix: every scheme on the DBM with cost
		// attribution (the component sums are verified exact per cell),
		// plus the rewrite schemes on the static and hybrid backends. Every
		// cell is checked against the native run's exit status and output,
		// so a successful sweep doubles as a parity gate. Writes the
		// BENCH_CELLS.json artifact and prints the per-(scheme, backend)
		// summary table. Not part of `all`: it is a CI artifact, not a
		// paper figure.
		{"cells", func() error {
			rep, err := experiments.Cells(*scale, benches...)
			if err != nil {
				return err
			}
			if err := writeArtifact(*out, "BENCH_CELLS.json", experiments.FormatJSON(rep)); err != nil {
				return err
			}
			fmt.Println(experiments.FormatCells(rep))
			return nil
		}},
		// Observability overhead sweep: every cell runs plain and with the
		// full tracing+diagnostics stack attached and must measure
		// identical Cycles/Instrs/output (hard error otherwise — the
		// zero-cost-when-disabled gate). Pure JSON for scripts/bench.sh.
		{"obs", func() error { return printJSON(experiments.Obs(*scale, benches...)) }},
		// Static-vs-dynamic detection study: jlint's must and must+may
		// alarm tiers against sanitized execution on the CWE-457 and
		// CWE-122 suites and the planted fuzz bug classes. Writes the
		// BENCH_STATIC.json artifact and prints the summary table.
		{"static", func() error {
			rep, err := experiments.Static(*scale)
			if err != nil {
				return err
			}
			if err := writeArtifact(*out, "BENCH_STATIC.json", experiments.FormatJSON(rep)); err != nil {
				return err
			}
			fmt.Println(experiments.FormatStatic(rep))
			return nil
		}},
	}
	var names []string
	for _, s := range studies {
		names = append(names, s.name)
	}
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: jexp [-scale n] [-parallel n] [-o file] %s|all [benchmarks...]\n",
			strings.Join(names, "|"))
		os.Exit(2)
	}

	for _, b := range benches {
		if spec.ByName(b) == nil {
			fmt.Fprintf(os.Stderr, "jexp: unknown workload %q\n", b)
			os.Exit(2)
		}
	}

	exit := 0
	if args[0] == "all" {
		// Run every figure even when one fails: losing fig14 because
		// fig9 tripped helps nobody. Failures are reported together at
		// the end with a non-zero exit.
		var failures []string
		for _, s := range studies[:paper] {
			if err := s.run(); err != nil {
				fmt.Fprintf(os.Stderr, "jexp: %s: %v\n", s.name, err)
				failures = append(failures, s.name)
			}
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "jexp: %d of %d experiments failed: %v\n",
				len(failures), paper, failures)
			exit = 1
		}
	} else if i := slices.Index(names, args[0]); i < 0 {
		fmt.Fprintf(os.Stderr, "jexp: unknown experiment %q\n", args[0])
		os.Exit(2)
	} else if err := studies[i].run(); err != nil {
		fmt.Fprintln(os.Stderr, "jexp:", err)
		exit = 1
	}
	if *stats {
		s := experiments.AnalysisStats()
		fmt.Fprintf(os.Stderr,
			"analysis service: %d analyses, %d cache hits, %d coalesced, %d submitted (workers=%d)\n",
			s.Sched.Analyzed, s.Sched.CacheHits, s.Sched.Coalesced,
			s.Sched.Submitted, s.Sched.Workers)
	}
	os.Exit(exit)
}

// writeArtifact writes a JSON artifact to path ("-" for stdout, empty for
// the figure's default filename).
func writeArtifact(path, def, j string) error {
	if path == "" {
		path = def
	}
	if path == "-" {
		fmt.Print(j)
		return nil
	}
	if err := os.WriteFile(path, []byte(j), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "jexp: wrote %s\n", path)
	return nil
}

func printJSON(v any, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatJSON(v))
	return nil
}

func printText(text string, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(text)
	return nil
}

func printFig(fig *experiments.Figure, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(fig.Format())
	return nil
}
