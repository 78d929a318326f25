// Quickstart: compile a MiniC program, run Janitizer's static analyzer with
// the JASan plug-in, execute under the hybrid dynamic modifier and print
// what happened — the whole pipeline in one file.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/libj"
	"repro/internal/loader"
)

const program = `
int main() {
    int *data = malloc(10 * sizeof(int));
    int sum = 0;
    for (int i = 0; i < 10; i++) {
        data[i] = i * i;
        sum += data[i];
    }
    puti(sum);
    free(data);
    return sum & 127;
}`

func main() {
	// 1. Compile (the reproduction's gcc -O2).
	mod, err := cc.Compile(program, cc.Options{Module: "quickstart", O2: true})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Static analysis: whole-program, over the ldd-visible closure,
	//    producing per-module rewrite rules.
	lj, err := libj.Module()
	if err != nil {
		log.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	tool := jasan.New(jasan.Config{UseLiveness: true})
	files, err := core.AnalyzeProgram(mod, reg, tool)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("static analyzer: %-12s %4d rewrite rules\n", name, len(files[name].Rules))
	}

	// 3. Execute under the hybrid dynamic modifier.
	s, err := core.Load(mod, reg, tool, files, core.Options{MaxInstrs: 10_000_000, Out: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	m, rt := s.M, s.RT

	fmt.Printf("exit status: %d\n", m.ExitStatus)
	fmt.Printf("violations:  %d\n", tool.Report.Total)
	fmt.Printf("coverage:    %d statically instrumented, %d no-op, %d dynamic-fallback blocks\n",
		rt.Coverage.StaticInstrumented, rt.Coverage.StaticNoOp, rt.Coverage.Fallback)
	fmt.Printf("cost:        %d cycles for %d instructions\n", m.Cycles, m.Instrs)
}
