package jmsan_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/jmsan"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
	"repro/internal/vm"
)

// agreeCase is one MiniC snippet both tools must classify identically:
// detect=true snippets read never-written memory and feed the value to a
// definedness sink (comparison, call argument or return value) while it is
// still in a register; detect=false snippets never load an undefined byte
// at all. The second constraint matters because the tools differ in report
// *timing* — valgrind-def checks every load eagerly, JMSan only loads whose
// values reach a sink — so a snippet that loads garbage and merely stores it
// is legal to JMSan but noisy to memcheck, and belongs to neither class.
type agreeCase struct {
	name   string
	src    string
	detect bool
}

var agreeCases = []agreeCase{
	// --- uninitialized reads both tools must detect ---
	{"heap-whole", `
int main() {
    char *buf = malloc(16);
    int s = 0;
    if (buf[15] > 9) { s = 1; }
    free(buf);
    return s;
}`, true},
	{"heap-whole-24", `
int main() {
    char *buf = malloc(24);
    int s = 0;
    if (buf[7] > 1) { s = 1; }
    free(buf);
    return s;
}`, true},
	{"heap-partial-tail", `
int main() {
    char *buf = malloc(16);
    for (int i = 0; i < 8; i++) { buf[i] = i & 127; }
    int s = 0;
    if (buf[15] > 2) { s = 1; }
    free(buf);
    return s;
}`, true},
	{"heap-loop-branch", `
int main() {
    char *buf = malloc(16);
    int s = 0;
    for (int i = 0; i < 4; i++) {
        if (buf[i] > 0) { s = s + 1; }
    }
    free(buf);
    return s;
}`, true},
	{"heap-return", `
int main() {
    char *buf = malloc(8);
    return buf[5];
}`, true},
	{"stack-tail", `
int victim(int n) {
    char buf[16];
    for (int i = 0; i < n; i++) { buf[i] = (i * 3) & 127; }
    int s = 0;
    if (buf[15] > 3) { s = 1; }
    return s;
}
int main() { return victim(0); }`, true},
	{"stack-partial", `
int victim(int n) {
    char buf[12];
    for (int i = 0; i < n; i++) { buf[i] = 1; }
    int s = 0;
    if (buf[11] > 3) { s = 1; }
    return s;
}
int main() { return victim(6); }`, true},
	{"scalar-skipped-branch", `
int pick(int a) {
    int x;
    if (a > 3) { x = 7; }
    return x;
}
int main() { return pick(2); }`, true},
	{"scalar-main-frame", `
int main() {
    int v;
    int s = 0;
    if (v < 100) { s = 1; }
    return s;
}`, true},
	{"heap-cross-function", `
int check(char *p) {
    int s = 0;
    if (p[3] > 5) { s = 1; }
    return s;
}
int main() {
    char *buf = malloc(8);
    int s = check(buf);
    free(buf);
    return s;
}`, true},

	// --- fully defined programs both tools must stay silent on ---
	{"heap-full-init", `
int main() {
    char *buf = malloc(16);
    for (int i = 0; i < 16; i++) { buf[i] = i & 127; }
    int s = 0;
    if (buf[15] > 9) { s = 1; }
    free(buf);
    return s;
}`, false},
	{"heap-partial-head", `
int main() {
    char *buf = malloc(16);
    for (int i = 0; i < 8; i++) { buf[i] = i & 127; }
    int s = 0;
    if (buf[7] > 2) { s = 1; }
    free(buf);
    return s;
}`, false},
	{"heap-write-then-read", `
int main() {
    char *buf = malloc(8);
    buf[3] = 5;
    int s = 0;
    if (buf[3] > 2) { s = 1; }
    free(buf);
    return s;
}`, false},
	{"heap-never-read", `
int main() {
    char *buf = malloc(24);
    free(buf);
    return 0;
}`, false},
	{"heap-zero-fill", `
int main() {
    char *buf = malloc(24);
    for (int i = 0; i < 24; i++) { buf[i] = 0; }
    int s = 0;
    if (buf[23] == 0) { s = 2; }
    free(buf);
    return s;
}`, false},
	{"stack-full-init", `
int victim(int n) {
    char buf[16];
    for (int i = 0; i < n; i++) { buf[i] = (i * 3) & 127; }
    int s = 0;
    if (buf[15] > 3) { s = 1; }
    return s;
}
int main() { return victim(16); }`, false},
	{"stack-read-in-prefix", `
int victim(int n) {
    char buf[12];
    for (int i = 0; i < n; i++) { buf[i] = 1; }
    int s = 0;
    if (buf[5] > 3) { s = 1; }
    return s;
}
int main() { return victim(6); }`, false},
	{"scalar-both-branches", `
int pick(int a) {
    int x;
    if (a > 3) { x = 7; } else { x = 3; }
    return x;
}
int main() { return pick(2); }`, false},
	{"scalar-init-then-return", `
int main() {
    int v = 41;
    return v + 1;
}`, false},
	{"param-passthrough", `
int id(int a) { return a; }
int main() { return id(3); }`, false},
}

// runAgreeTool compiles src at the given optimisation level and executes it
// under tool, returning the tool's uninitialized-read report count. JMSan
// runs its full hybrid pipeline (static rules + dynamic fallback);
// valgrind-def is dynamic-only by construction (its StaticPass emits no
// rules), so the empty rule set routes every block through the fallback.
func runAgreeTool(t *testing.T, src string, o2 bool, tool core.Tool, static bool) uint64 {
	t.Helper()
	mod, err := cc.Compile(src, cc.Options{Module: "agree", O2: o2})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	files := map[string]*rules.File{}
	if static {
		files, err = core.AnalyzeProgram(mod, reg, tool)
		if err != nil {
			t.Fatalf("static analysis: %v", err)
		}
	}
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 20_000_000
	proc := loader.NewProcess(m, reg)
	rt := core.NewRuntime(m, proc, tool, files)
	lm, err := proc.LoadProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(lm.RuntimeAddr(mod.Entry)); err != nil {
		t.Fatalf("run: %v", err)
	}
	switch tt := tool.(type) {
	case *jmsan.Tool:
		return tt.Report.Total
	case *baseline.ValgrindTool:
		return tt.Report.Total
	}
	t.Fatalf("unhandled tool %T", tool)
	return 0
}

// TestJMSanValgrindDefAgreement is the cross-tool oracle: on twenty shared
// MiniC snippets, compiled at both -O0 and -O2, hybrid JMSan and the
// dynamic-only valgrind-def model must reach the same verdict — detect
// (report count > 0) on every uninitialized-read snippet, silent on every
// fully defined one. Report *counts* may differ (valgrind-def checks every
// access, JMSan elides proven-defined ones), so only the verdict is
// compared.
func TestJMSanValgrindDefAgreement(t *testing.T) {
	for _, tc := range agreeCases {
		for _, opt := range []struct {
			name string
			o2   bool
		}{{"O0", false}, {"O2", true}} {
			t.Run(tc.name+"/"+opt.name, func(t *testing.T) {
				jm := jmsan.New(jmsan.Config{UseLiveness: true})
				nJM := runAgreeTool(t, tc.src, opt.o2, jm, true)
				vd := baseline.NewValgrindDef()
				nVD := runAgreeTool(t, tc.src, opt.o2, vd, false)

				if got := nJM > 0; got != tc.detect {
					t.Errorf("jmsan: %d reports, want detect=%v", nJM, tc.detect)
				}
				if got := nVD > 0; got != tc.detect {
					t.Errorf("valgrind-def: %d reports, want detect=%v", nVD, tc.detect)
				}
				if (nJM > 0) != (nVD > 0) {
					t.Errorf("tools disagree: jmsan=%d valgrind-def=%d", nJM, nVD)
				}
			})
		}
	}
}
