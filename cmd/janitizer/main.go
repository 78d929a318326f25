// Command janitizer runs Janitizer's static analyzer over a program and its
// ldd-visible dependency closure, writing one rewrite-rule file (.jrw) per
// module for the dynamic modifier (jrun) to load.
//
// Usage:
//
//	janitizer -tool jasan|jmsan|jtsan|jtsan-elide|jcfi [-libdir dir] [-outdir dir] main.jef
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jefdir"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
)

func main() {
	toolName := flag.String("tool", "jasan", "security technique: jasan, jmsan, jtsan, jtsan-elide or jcfi")
	libdir := flag.String("libdir", "", "directory of dependency .jef modules")
	outdir := flag.String("outdir", ".", "directory to write .jrw rule files into")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("janitizer"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: janitizer -tool jasan|jmsan|jtsan|jtsan-elide|jcfi [flags] main.jef")
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
	switch *toolName {
	case "jasan":
		tool = jasan.New(jasan.Config{UseLiveness: true})
	case "jmsan":
		tool = jmsan.New(jmsan.Config{UseLiveness: true})
	case "jtsan":
		tool = jtsan.New(jtsan.Config{UseLiveness: true})
	case "jtsan-elide":
		tool = jtsan.New(jtsan.Config{UseLiveness: true, Elide: true})
	case "jcfi":
		tool = jcfi.New(jcfi.DefaultConfig)
	default:
		fatal(fmt.Errorf("unknown tool %q", *toolName))
	}
	files, err := core.AnalyzeProgram(main, reg, tool)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := files[name]
		path := filepath.Join(*outdir, name+"."+*toolName+".jrw")
		if err := os.WriteFile(path, f.Marshal(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d rules -> %s\n", name, len(f.Rules), path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "janitizer:", err)
	os.Exit(1)
}
