package cc

import (
	"strings"
	"testing"
)

// iparaSrc has a caller holding a live temp across a call to a leaf that
// never touches the temp registers the caller uses.
const iparaSrc = `
int counter = 0;
int tick() { counter += 1; return counter; }
int leafy(int x) { return x * 2 + 1; }
int main() {
    int acc = 0;
    for (int i = 0; i < 50; i++) {
        acc = acc + (i - leafy(i)); // two temps live across the call:
    }                               // leafy only ever touches r0/r6, so the
    tick();                         // deeper temp's spill is elided
    return acc & 127;
}`

func countOps(text, op string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), op+" ") {
			n++
		}
	}
	return n
}

func TestIpaRaElidesSpills(t *testing.T) {
	with, err := GenAsm(iparaSrc, Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := GenAsm(iparaSrc, Options{Module: "p", O2: true, NoIPARA: true})
	if err != nil {
		t.Fatal(err)
	}
	pw, pwo := countOps(with, "push"), countOps(without, "push")
	if pw >= pwo {
		t.Fatalf("ipa-ra elided nothing: %d pushes with, %d without", pw, pwo)
	}
	t.Logf("pushes: %d with ipa-ra, %d without", pw, pwo)
}

func TestIpaRaPreservesSemantics(t *testing.T) {
	want, _ := compileRun(t, iparaSrc, Options{Module: "p", O2: true, NoIPARA: true})
	got, _ := compileRun(t, iparaSrc, Options{Module: "p", O2: true})
	if got != want {
		t.Fatalf("ipa-ra changed behaviour: %d vs %d", got, want)
	}
	gotO0, _ := compileRun(t, iparaSrc, Options{Module: "p"})
	if gotO0 != want {
		t.Fatalf("-O0 disagrees: %d vs %d", gotO0, want)
	}
}

func TestIpaRaNeverAppliesAcrossEscapes(t *testing.T) {
	// Calls whose extent escapes the unit (library calls, indirect calls)
	// must keep their conservative spills.
	src := `
int cb(int x) { return x + 1; }
int main() {
    int acc = 0;
    int (*f)(int) = cb;
    for (int i = 0; i < 10; i++) {
        acc = acc + i + f(i);      // indirect: never elided
    }
    int *p = malloc(16);           // library: never elided
    acc = acc + (p != 0);
    free(p);
    return acc & 127;
}`
	with, err := GenAsm(src, Options{Module: "p", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := GenAsm(src, Options{Module: "p", O2: true, NoIPARA: true})
	if err != nil {
		t.Fatal(err)
	}
	// cb is called indirectly here and its own extent is clean, but the
	// SITES are indirect/library calls — push counts must match.
	if countOps(with, "push") != countOps(without, "push") {
		t.Fatalf("ipa-ra elided a spill across an escaping call:\n%s", with)
	}
}

// TestIpaRaKeepsSpillsAroundEscapingCallees holds five temps across a
// direct call (r6–r10 are spilled around it) to callees that write none of
// r10 themselves. Each callee but the clean control reaches code that may
// write it: through a jump table, a tail call into libj, a call through a
// function pointer, or a call or tail call to a unit function that writes
// every temp. Their spills must all stay.
func TestIpaRaKeepsSpillsAroundEscapingCallees(t *testing.T) {
	const callees = `
int dirty(int x) { return x + (x + (x + (x + (x + x)))); }
int leafy(int x) { return x * 2 + 1; }
int table(int x) {
    switch (x) {
    case 0: return 5;
    case 1: return 7;
    case 2: return 11;
    case 3: return 13;
    }
    return 0;
}
int taillib(int x) { return rand(); }
int viaptr(int x) { int (*f)(int) = leafy; int r = f(x); return r; }
int viacall(int x) { int r = dirty(x); return r; }
int viatail(int x) { return dirty(x); }
`
	for _, c := range []struct {
		callee string
		clean  bool
	}{
		{"leafy", true}, {"table", false}, {"taillib", false}, {"viaptr", false},
		{"viacall", false}, {"viatail", false},
	} {
		src := callees + `
int main() {
    int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int acc = 0;
    for (int i = 0; i < 4; i++) {
        int v = a + (b + (c + (d + (e - ` + c.callee + `(i)))));
        acc = acc + v;
    }
    return acc & 127;
}`
		with, err := GenAsm(src, Options{Module: "p", O2: true})
		if err != nil {
			t.Fatalf("%s: %v", c.callee, err)
		}
		without, err := GenAsm(src, Options{Module: "p", O2: true, NoIPARA: true})
		if err != nil {
			t.Fatalf("%s: NoIPARA: %v", c.callee, err)
		}
		pw, pwo := countOps(with, "push"), countOps(without, "push")
		if c.clean && pw >= pwo {
			t.Errorf("%s: ipa-ra dropped no spill around a clean callee (%d pushes, %d without)", c.callee, pw, pwo)
		}
		if !c.clean && pw != pwo {
			t.Errorf("%s: ipa-ra dropped a spill around an escaping callee (%d pushes, %d without)", c.callee, pw, pwo)
		}
	}
}
