package cc_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/fuzz/gen"
	"repro/internal/juliet"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// compileGoldenPath holds one line per corpus source: its name, its
// options, the SHA-256 of the compiled module and the SHA-256 of the
// assembly text jcc -S prints for it.
var compileGoldenPath = filepath.Join("testdata", "compile.golden")

// corpusSource is one compilation of the golden corpus.
type corpusSource struct {
	name string
	src  string
	opts cc.Options
}

// goldenScales are the spec scales the corpus compiles at: scale changes
// only immediates, so three of them cover small, multi-digit and wide
// constants.
var goldenScales = []int{1, 7, 913}

// fuzzPrograms is the number of generated programs in the corpus.
const fuzzPrograms = 500

// compileCorpus returns every spec program and extra module at each golden
// scale (non-PIC -O2, PIC -O2 and -O0), every Juliet good and bad variant
// at -O2, and fuzzPrograms generated programs at -O2.
func compileCorpus() []corpusSource {
	var out []corpusSource
	for _, w := range spec.All() {
		for _, scale := range goldenScales {
			expand := func(src string) string {
				return strings.ReplaceAll(src, "SCALE_N", fmt.Sprint(scale))
			}
			for _, o := range []cc.Options{{O2: true}, {O2: true, PIC: true}, {}} {
				o.Module = w.Name
				out = append(out, corpusSource{fmt.Sprintf("spec/%s@%d", w.Name, scale), expand(w.Src), o})
			}
			for _, name := range sortedKeys(w.ExtraC) {
				for _, o2 := range []bool{true, false} {
					o := cc.Options{Module: name, Shared: true, NoRuntime: true, O2: o2}
					out = append(out, corpusSource{fmt.Sprintf("spec/%s@%d/%s", w.Name, scale, name),
						expand(w.ExtraC[name]), o})
				}
			}
		}
	}
	for _, suite := range []struct {
		name  string
		cases []juliet.Case
	}{
		{"cwe122", juliet.Suite()}, {"cwe415", juliet.Suite415()},
		{"cwe416", juliet.Suite416()}, {"cwe457", juliet.Suite457()},
	} {
		for _, c := range suite.cases {
			o := cc.Options{Module: "case", O2: true}
			out = append(out,
				corpusSource{"juliet/" + suite.name + "/" + c.ID + "/good", c.Good, o},
				corpusSource{"juliet/" + suite.name + "/" + c.ID + "/bad", c.Bad, o})
		}
	}
	for seed := int64(1); seed <= fuzzPrograms; seed++ {
		p := gen.New(rand.New(rand.NewSource(seed)))
		out = append(out, corpusSource{fmt.Sprintf("fuzz/%d", seed), p.Render(),
			cc.Options{Module: "p", O2: true}})
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// optsString renders the options that vary across the corpus.
func optsString(o cc.Options) string {
	parts := []string{"O0"}
	if o.O2 {
		parts[0] = "O2"
	}
	if o.PIC {
		parts = append(parts, "pic")
	}
	if o.Shared {
		parts = append(parts, "shared")
	}
	if o.NoRuntime {
		parts = append(parts, "noruntime")
	}
	return strings.Join(parts, ",")
}

// TestCompileGolden pins every module jcc produces over the corpus, and the
// assembly text jcc -S prints, byte for byte. It also checks that
// assembling the -S text yields the module Compile returns (jcc -S | jas
// == jcc). A change to the compiler's internals must leave the file
// byte-identical; regenerate it with -update only for a change that moves
// generated code on purpose.
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range compileCorpus() {
		mod, err := cc.Compile(s.src, s.opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		text, err := cc.GenAsm(s.src, s.opts)
		if err != nil {
			t.Fatalf("%s: -S: %v", s.name, err)
		}
		re, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("%s: assembling -S output: %v", s.name, err)
		}
		bin := mod.Marshal()
		if !bytes.Equal(re.Marshal(), bin) {
			t.Errorf("%s %s: assembled -S output differs from the compiled module",
				s.name, optsString(s.opts))
		}
		fmt.Fprintf(&b, "%s %s mod=%x asm=%x\n", s.name, optsString(s.opts),
			sha256.Sum256(bin), sha256.Sum256([]byte(text)))
	}
	checkGolden(t, compileGoldenPath, b.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("%s has %d lines, run has %d", path, len(wantLines), len(gotLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d differs:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}

// spillLine matches the push or pop of a temp register (r6-r11), the only
// lines ipa-ra may leave out.
var spillLine = regexp.MustCompile(`^    (push|pop) r(6|7|8|9|10|11)$`)

// TestIpaRaDropsOnlySpills checks the property one-pass ipa-ra relies on:
// over the corpus, the -O2 text is the -O2 NoIPARA text with some temp
// register pushes and pops left out, in pairs, and nothing else changed.
// No spec program or Juliet case gives ipa-ra a spill to drop; a few of
// the generated programs do, so the test fails if the corpus drops none.
func TestIpaRaDropsOnlySpills(t *testing.T) {
	pairs, sources := 0, 0
	for _, s := range compileCorpus() {
		if !s.opts.O2 {
			continue
		}
		with, err := cc.GenAsm(s.src, s.opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		o := s.opts
		o.NoIPARA = true
		without, err := cc.GenAsm(s.src, o)
		if err != nil {
			t.Fatalf("%s: NoIPARA: %v", s.name, err)
		}
		w := strings.Split(with, "\n")
		j, pushes, pops := 0, 0, 0
		for i, l := range strings.Split(without, "\n") {
			if j < len(w) && w[j] == l {
				j++
				continue
			}
			m := spillLine.FindStringSubmatch(l)
			if m == nil {
				t.Fatalf("%s %s: NoIPARA line %d %q is missing with ipa-ra and is no temp spill",
					s.name, optsString(s.opts), i+1, l)
			}
			if m[1] == "push" {
				pushes++
			} else {
				pops++
			}
		}
		if j != len(w) {
			t.Fatalf("%s %s: -O2 line %d %q is not in the NoIPARA text",
				s.name, optsString(s.opts), j+1, w[j])
		}
		if pushes != pops {
			t.Fatalf("%s %s: ipa-ra dropped %d pushes but %d pops",
				s.name, optsString(s.opts), pushes, pops)
		}
		if pushes > 0 {
			pairs += pushes
			sources++
		}
	}
	if pairs == 0 {
		t.Fatal("ipa-ra dropped no spill anywhere in the corpus")
	}
	t.Logf("ipa-ra drops %d spill pairs from %d sources", pairs, sources)
}
