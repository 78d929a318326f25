package cc

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/vm"
)

// compileRun compiles src and executes it natively; returns exit status and
// console output.
func compileRun(t *testing.T, src string, opts Options) (int64, string) {
	t.Helper()
	if opts.Module == "" {
		opts.Module = "prog"
	}
	mod, err := Compile(src, opts)
	if err != nil {
		asmText, _ := GenAsm(src, opts)
		t.Fatalf("compile: %v\nasm:\n%s", err, asmText)
	}
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	var out bytes.Buffer
	m.Out = &out
	m.InstallDefaultServices()
	m.MaxInstrs = 50_000_000
	proc := loader.NewProcess(m, loader.Registry{libj.Name: lj})
	lm, err := proc.LoadProgram(mod)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := m.Run(lm.RuntimeAddr(mod.Entry)); err != nil {
		asmText, _ := GenAsm(src, opts)
		t.Fatalf("run: %v\nasm:\n%s", err, asmText)
	}
	return m.ExitStatus, out.String()
}

// runBoth runs a program at -O0 and -O2 and checks both produce want.
func runBoth(t *testing.T, src string, want int64) {
	t.Helper()
	for _, o2 := range []bool{false, true} {
		got, _ := compileRun(t, src, Options{Module: "prog", O2: o2})
		if got != want {
			t.Errorf("O2=%v: exit = %d, want %d", o2, got, want)
		}
	}
}

func TestReturnConstant(t *testing.T) {
	runBoth(t, `int main() { return 42; }`, 42)
}

func TestArithmetic(t *testing.T) {
	runBoth(t, `
int main() {
    int a = 7;
    int b = 3;
    return a*b + a/b - a%b + (a<<1) + (b>>1) + (a&b) + (a|b) + (a^b);
}`, 21+2-1+14+1+3+7+4)
}

func TestUnaryOps(t *testing.T) {
	runBoth(t, `int main() { int x = 5; return -x + 10 + !x + !!x + (~x + 6); }`, 6)
}

func TestIfElseChains(t *testing.T) {
	runBoth(t, `
int classify(int x) {
    if (x < 0) return 0;
    else if (x == 0) return 1;
    else if (x < 10) return 2;
    return 3;
}
int main() { return classify(-5)*1000 + classify(0)*100 + classify(5)*10 + classify(50); }
`, 123)
}

func TestWhileAndFor(t *testing.T) {
	runBoth(t, `
int main() {
    int sum = 0;
    int i = 0;
    while (i < 10) { sum += i; i++; }
    for (int j = 0; j < 10; j++) sum += j;
    int k = 0;
    do { sum += 1; k++; } while (k < 5);
    return sum;
}`, 45+45+5)
}

func TestBreakContinue(t *testing.T) {
	runBoth(t, `
int main() {
    int sum = 0;
    for (int i = 0; i < 100; i++) {
        if (i % 2 == 0) continue;
        if (i > 10) break;
        sum += i;
    }
    return sum;
}`, 1+3+5+7+9)
}

func TestLogicalOps(t *testing.T) {
	runBoth(t, `
int sideEffects = 0;
int bump() { sideEffects += 1; return 1; }
int main() {
    int a = 0 && bump();       // short-circuit: no bump
    int b = 1 || bump();       // short-circuit: no bump
    int c = 1 && bump();       // bump
    return sideEffects * 100 + a*10 + b + c;
}`, 100+0+1+1)
}

func TestArraysAndPointers(t *testing.T) {
	runBoth(t, `
int main() {
    int arr[10];
    for (int i = 0; i < 10; i++) arr[i] = i * i;
    int *p = arr;
    int sum = 0;
    for (int i = 0; i < 10; i++) sum += p[i];
    sum += *(arr + 3);
    int *q = &arr[5];
    sum += *q;
    return sum;
}`, 285+9+25)
}

func TestCharArraysAndStrings(t *testing.T) {
	runBoth(t, `
int main() {
    char buf[16] = "hello";
    char c = buf[1];
    buf[0] = 'H';
    return c * 2 + buf[0] + strlen(buf);
}`, int64('e')*2+int64('H')+5)
}

func TestGlobals(t *testing.T) {
	runBoth(t, `
int counter = 5;
int table[4] = {10, 20, 30, 40};
char msg[8] = "hi";
int main() {
    counter += 1;
    return counter + table[2] + msg[1];
}`, 6+30+int64('i'))
}

func TestRecursion(t *testing.T) {
	runBoth(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}
int main() { return fib(12); }`, 144)
}

func TestFunctionPointers(t *testing.T) {
	runBoth(t, `
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int apply(int (*op)(int, int), int x, int y) { return op(x, y); }
int main() {
    int (*f)(int, int) = add;
    int r1 = apply(f, 10, 4);
    f = sub;
    int r2 = apply(f, 10, 4);
    return r1 * 100 + r2;
}`, 1406)
}

func TestFunctionPointerTable(t *testing.T) {
	runBoth(t, `
int op0(int x) { return x + 1; }
int op1(int x) { return x * 2; }
int op2(int x) { return x - 3; }
int (*ops[3])(int) = {op0, op1, op2};
int main() {
    int sum = 0;
    for (int i = 0; i < 3; i++) sum += ops[i](10);
    return sum;
}`, 11+20+7)
}

func TestSwitchSparseAndDense(t *testing.T) {
	src := `
int dense(int x) {
    switch (x) {
    case 0: return 10;
    case 1: return 11;
    case 2: return 12;
    case 3: return 13;
    case 4: return 14;
    default: return 99;
    }
}
int sparse(int x) {
    switch (x) {
    case 1: return 1;
    case 1000: return 2;
    default: return 3;
    }
}
int fall(int x) {
    int r = 0;
    switch (x) {
    case 0:
    case 1: r += 1;   // fallthrough from 0
    case 2: r += 10; break;
    case 3: r = 77; break;
    }
    return r;
}
int main() {
    return dense(2)*10000 + dense(9)/9*100 + sparse(1000)*10 + fall(0) + fall(3)/7;
}`
	runBoth(t, src, 12*10000+11*100+2*10+11+11)
}

func TestSwitchJumpTableEmittedAtO2(t *testing.T) {
	src := `
int dense(int x) {
    switch (x) {
    case 0: return 10;
    case 1: return 11;
    case 2: return 12;
    case 3: return 13;
    case 4: return 14;
    default: return 99;
    }
}
int main() { return dense(3); }`
	asmO2, err := GenAsm(src, Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmO2, "jmpi") {
		t.Error("-O2 dense switch did not produce a jump table dispatch")
	}
	asmO0, err := GenAsm(src, Options{Module: "p", O2: false})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(asmO0, "jmpi") {
		t.Error("-O0 produced a jump table")
	}
	// The recovered CFG must see the jump table.
	mod, err := Compile(src, Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.JumpTables) != 1 {
		t.Errorf("static analyzer recovered %d jump tables, want 1", len(g.JumpTables))
	} else {
		for _, jt := range g.JumpTables {
			if len(jt.Targets) != 5 {
				t.Errorf("jump table targets = %d, want 5", len(jt.Targets))
			}
		}
	}
}

func TestCanaryEmission(t *testing.T) {
	src := `
int withArray() { char buf[32]; buf[0] = 1; return buf[0]; }
int without(int x) { return x + 1; }
int main() { return withArray() + without(1); }`
	text, err := GenAsm(src, Options{Module: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ldg") {
		t.Error("no canary code emitted for array frame")
	}
	// The canary detector must find it.
	mod, err := Compile(src, Options{Module: "p"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// Disable canary option works.
	text2, _ := GenAsm(src, Options{Module: "p", NoCanary: true})
	if strings.Contains(text2, "ldg") {
		t.Error("NoCanary still emitted canary code")
	}
	// Execution with canary intact.
	runBoth(t, src, 3)
}

func TestLibjCalls(t *testing.T) {
	got, out := compileRun(t, `
int main() {
    int *p = malloc(80);
    for (int i = 0; i < 10; i++) p[i] = i;
    int sum = 0;
    for (int i = 0; i < 10; i++) sum += p[i];
    free(p);
    puti(sum);
    return sum;
}`, Options{Module: "p", O2: true})
	if got != 45 {
		t.Fatalf("exit = %d", got)
	}
	if !strings.Contains(out, "45") {
		t.Fatalf("output = %q", out)
	}
}

func TestQsortCallback(t *testing.T) {
	runBoth(t, `
int cmp(int a, int b) { return a - b; }
int data[5] = {50, 10, 40, 20, 30};
int main() {
    qsort(data, 5, cmp);
    return data[0] + data[4] * 2;
}`, 10+100)
}

func TestPICSharedObject(t *testing.T) {
	lib := `
int secret = 7;
int getsecret() { return secret; }
int twice(int x) { return x * 2; }
`
	libMod, err := Compile(lib, Options{Module: "libx.jef", Shared: true, NoRuntime: true})
	if err != nil {
		t.Fatal(err)
	}
	if !libMod.PIC || libMod.Type.String() != "shared-object" {
		t.Fatalf("shared lib header: PIC=%v type=%v", libMod.PIC, libMod.Type)
	}
	main := `
int getsecret();
int twice(int x);
int main() { return twice(getsecret()) + twice(4); }
`
	mainMod, err := Compile(main, Options{Module: "prog"})
	if err != nil {
		t.Fatal(err)
	}
	// Main imports must include the lib functions; add the dependency.
	mainMod.Needed = append(mainMod.Needed, "libx.jef")
	lj, _ := libj.Module()
	m := vm.New()
	m.InstallDefaultServices()
	m.MaxInstrs = 1_000_000
	proc := loader.NewProcess(m, loader.Registry{
		libj.Name: lj, "libx.jef": libMod,
	})
	lm, err := proc.LoadProgram(mainMod)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(lm.RuntimeAddr(mainMod.Entry)); err != nil {
		t.Fatal(err)
	}
	if m.ExitStatus != 22 {
		t.Fatalf("exit = %d, want 22", m.ExitStatus)
	}
}

func TestConstantFolding(t *testing.T) {
	text, err := GenAsm(`int main() { return 2*3+4*5-1; }`, Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "mov r6, 25") {
		t.Errorf("-O2 did not fold 2*3+4*5-1; asm:\n%s", text)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined", `int main() { return nope; }`, "undefined name"},
		{"bad assign", `int main() { 5 = 3; return 0; }`, "not assignable"},
		{"too many args", `int f(int a,int b,int c,int d,int e,int f2){return 0;}
int main(){return f(1,2,3,4,5,6);}`, "parameters unsupported"},
		{"syntax", `int main() { return ; `, "expected"},
		{"bad global init", `int g = f(); int main(){return 0;}`, "constant"},
		{"deref int", `int main() { int x; return *x; }`, "non-pointer"},
		{"function defined twice", "int f() { return 1; }\nint f() { return 2; }\nint main() { return f(); }",
			"line 2: redefinition of f (first defined on line 1)"},
		{"global defined twice", "int g;\nint main() { return g; }\nint g = 3;",
			"line 3: redefinition of g (first defined on line 1)"},
		{"global and function", "int main() { return 0; }\nint h() { return 1; }\nchar h[4];",
			"line 3: redefinition of h (first defined on line 2)"},
		{"function after global", "int h;\nint h() { return 1; }\nint main() { return 0; }",
			"line 2: redefinition of h (first defined on line 1)"},
	}
	for _, tc := range cases {
		_, err := GenAsm(tc.src, Options{Module: "p"})
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestOversizedArraysRejected pins the diagnostics for arrays the JVA
// image cannot hold: a byte size that overflows and a frame past the int32
// fp displacement are line-numbered compile errors, and a global past the
// 2 GiB address space fails the link before its section is allocated.
func TestOversizedArraysRejected(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
		line            int
	}{
		{"local past the displacement", "int main() {\n  char a[4294967296];\n  a[0] = 1;\n  return 0;\n}",
			"frame of main is larger than", 2},
		{"locals together past the displacement", "int main() {\n  char a[1610612736];\n  char b[1610612736];\n  return 0;\n}",
			"frame of main is larger than", 3},
		{"parameter past the displacement", "int f(char a[4294967296]) { return 0; }\nint main() { return 0; }",
			"frame of f is larger than", 1},
		{"global size overflows", "int g[2305843009213693952];\nint h;\nint main() { h = 9; g[1] = 1; return h; }",
			"array int[2305843009213693952] is too large", 1},
		{"nested size overflows", "int x;\nint main() {\n  int a[4294967296][4294967296];\n  return 0;\n}",
			"is too large", 3},
	} {
		_, err := Compile(tc.src, Options{Module: "p", O2: true})
		var ce *CompileError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want a *CompileError", tc.name, err)
			continue
		}
		if ce.Line != tc.line || !strings.Contains(ce.Msg, tc.want) {
			t.Errorf("%s: got %v, want line %d: %s...", tc.name, err, tc.line, tc.want)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Compile("int g[3000000000];\nint main() { return g[0]; }", Options{Module: "p", O2: true})
	runtime.ReadMemStats(&after)
	var ae *asm.Error
	if !errors.As(err, &ae) || !strings.Contains(ae.Msg, "section .data passes the end of the address space") {
		t.Errorf("24 GB global: got %v, want an *asm.Error for .data", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("24 GB global: compiling allocated %d MiB", grew>>20)
	}
}

func TestNestedScopes(t *testing.T) {
	runBoth(t, `
int main() {
    int x = 1;
    {
        int x = 2;
        { int x = 3; if (x != 3) return 99; }
        if (x != 2) return 98;
    }
    return x;
}`, 1)
}

func TestPostIncDecSemantics(t *testing.T) {
	runBoth(t, `
int main() {
    int i = 5;
    int a = i++;
    int b = i--;
    int arr[3];
    int j = 0;
    arr[j++] = 7;
    return a*100 + b*10 + i + arr[0] + j;
}`, 500+60+5+7+1)
}

func TestCompoundAssignOnMemory(t *testing.T) {
	runBoth(t, `
int g = 10;
int main() {
    int arr[4];
    arr[2] = 5;
    arr[2] += 3;
    arr[2] *= 2;
    g -= 4;
    int *p = &g;
    *p += 100;
    return arr[2] + g;
}`, 16+106)
}

func TestCharPointerWalk(t *testing.T) {
	runBoth(t, `
int main() {
    char s[8] = "abc";
    char *p = s;
    int sum = 0;
    while (*p) { sum += *p; p += 1; }
    return sum - 'a' - 'b' - 'c';
}`, 0)
}

func TestDeepExpressionsWithinLimit(t *testing.T) {
	runBoth(t, `
int main() {
    int a = 1; int b = 2; int c = 3; int d = 4;
    return ((a+b)*(c+d)) + ((a*b)+(c*d)) + (a+(b+(c+(d+1))));
}`, 21+14+11)
}

func TestStaticFunctionsNotExported(t *testing.T) {
	mod, err := Compile(`
static int helper() { return 1; }
int main() { return helper(); }
`, Options{Module: "p"})
	if err != nil {
		t.Fatal(err)
	}
	h := mod.FindSymbol("helper")
	if h == nil {
		t.Fatal("helper symbol missing")
	}
	if h.Exported {
		t.Error("static function exported")
	}
	if mn := mod.FindSymbol("main"); mn == nil || !mn.Exported {
		t.Error("main should be exported")
	}
}

func TestGeneratedCodeAnalyzable(t *testing.T) {
	// The compiler's output must be fully recoverable by the static
	// analyzer: every byte of .text covered by blocks (no gaps except
	// data-in-code, which jcc never emits).
	mod, err := Compile(`
int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        if (i % 3 == 0) acc += i;
        else acc -= 1;
    }
    return acc;
}
int main() { return work(100); }
`, Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(mod)
	if err != nil {
		t.Fatal(err)
	}
	text := mod.Section(".text")
	covered := 0
	for _, b := range g.Blocks {
		if text.Contains(b.Start) {
			covered += int(b.End() - b.Start)
		}
	}
	// The only permissible gaps are the unreachable implicit-return
	// epilogue stubs after functions whose every path returns.
	if covered < len(text.Data)*9/10 {
		t.Errorf("static recovery covered %d of %d .text bytes", covered, len(text.Data))
	}
	_ = isa.Instr{}
}
