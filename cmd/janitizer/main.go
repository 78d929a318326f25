// Command janitizer runs Janitizer's static analyzer over a program and its
// ldd-visible dependency closure, writing one rewrite-rule file (.jrw) per
// module for the dynamic modifier (jrun) to load.
//
// Usage:
//
//	janitizer [-tool name] [-libdir dir] [-outdir dir] main.jef
//
// -tool takes any internal/registry name or alias with a static stage; rule
// files are named <module>.<canonical name>.jrw, so jrun finds either name's.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/jefdir"
	"repro/internal/registry"
)

func main() {
	toolName := flag.String("tool", "jasan", "tool configuration: "+registry.Usage(true))
	libdir := flag.String("libdir", "", "directory of dependency .jef modules")
	outdir := flag.String("outdir", ".", "directory to write .jrw rule files into")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("janitizer"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: janitizer [flags] main.jef")
		os.Exit(2)
	}
	entry, err := registry.LookupStatic(*toolName)
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
		path := filepath.Join(*outdir, name+"."+entry.Name+".jrw")
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
