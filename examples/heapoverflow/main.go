// Heap-overflow demo: JASan finds an off-by-one heap write and a
// use-after-free in a buggy string-processing routine, while the same
// program runs to completion natively with silent corruption — the
// motivating scenario of the paper's introduction.
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/vm"
)

// buggy has two classic CWE-122-family defects: the NUL terminator lands one
// byte past the allocation, and the buffer is read again after free.
const buggy = `
int duplicate(char *s) {
    int n = strlen(s);
    char *copy = malloc(n);        // BUG: no room for the terminator
    for (int i = 0; i < n; i++) copy[i] = s[i];
    copy[n] = 0;                   // off-by-one heap write
    int check = copy[0];
    free(copy);
    check += copy[1];              // use after free
    return check;
}
int main() {
    char text[16] = "janitizer";
    return duplicate(text) & 127;
}`

func run(withSanitizer bool) (*vm.Machine, *jasan.Tool, error) {
	mod, err := cc.Compile(buggy, cc.Options{Module: "buggy", O2: true})
	if err != nil {
		return nil, nil, err
	}
	lj, err := libj.Module()
	if err != nil {
		return nil, nil, err
	}
	reg := loader.Registry{libj.Name: lj}
	var jt *jasan.Tool
	var tool core.Tool // stays nil (a native run) without the sanitizer
	var files map[string]*rules.File
	if withSanitizer {
		jt = jasan.New(jasan.Config{UseLiveness: true})
		tool = jt
		if files, err = core.AnalyzeProgram(mod, reg, jt); err != nil {
			return nil, nil, err
		}
	}
	s, err := core.Load(mod, reg, tool, files, core.Options{MaxInstrs: 10_000_000})
	if err != nil {
		return nil, nil, err
	}
	return s.M, jt, s.Run()
}

func main() {
	native, _, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native run:   exit %d — the corruption is silent\n", native.ExitStatus)

	m, tool, err := run(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under JASan:  exit %d, %d violations detected:\n",
		m.ExitStatus, tool.Report.Total)
	for _, v := range tool.Report.Violations {
		fmt.Printf("  %s\n", v)
	}
	var _ *obj.Module // (package kept imported for doc reference)
}
