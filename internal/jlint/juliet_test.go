package jlint_test

// These tests draw their cases from the Juliet suite, whose harness builds
// tools through the registry, which imports jlint: they live in the
// external test package to keep the test build free of an import cycle.

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/jlint"
	"repro/internal/juliet"
)

// TestCWE457Detection is the static half of the acceptance criteria: every
// definite-bug case (the stack and scalar shapes, where the uninit read is
// on the only feasible path) yields a must uninit-read alarm; no good
// variant yields any must-alarm.
func TestCWE457Detection(t *testing.T) {
	for _, c := range juliet.Suite457() {
		for _, v := range []struct {
			name string
			src  string
			bad  bool
		}{{"good", c.Good, false}, {"bad", c.Bad, true}} {
			mod, err := cc.Compile(v.src, cc.Options{Module: "case", O2: true})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", c.ID, v.name, err)
			}
			rep, err := jlint.Analyze(mod)
			if err != nil {
				t.Fatalf("%s/%s: analyze: %v", c.ID, v.name, err)
			}
			musts := rep.Musts()
			if !v.bad && len(musts) != 0 {
				t.Errorf("%s/good: %d must-alarms (want 0): %+v", c.ID, len(musts), musts[0])
			}
			if v.bad && c.Definite {
				uninit := 0
				for _, f := range musts {
					if f.Kind == jlint.UninitRead {
						uninit++
					}
				}
				if uninit == 0 {
					t.Errorf("%s/bad: definite case missed (findings: %+v)", c.ID, rep.Findings)
				}
			}
		}
	}
}

func TestVerifyReport(t *testing.T) {
	for _, c := range juliet.Suite457()[72:76] {
		mod, err := cc.Compile(c.Bad, cc.Options{Module: "case", O2: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := jlint.Analyze(mod)
		if err != nil {
			t.Fatal(err)
		}
		if v := jlint.VerifyReport(mod, rep); len(v) != 0 {
			t.Errorf("%s: clean report has %d violations: %v", c.ID, len(v), v[0])
		}
		if len(rep.Findings) == 0 {
			t.Fatalf("%s: expected findings", c.ID)
		}
		// A report with a finding removed must fail re-derivation.
		tampered := &jlint.Report{Version: rep.Version, Module: rep.Module,
			ModHash: rep.ModHash, Findings: rep.Findings[1:]}
		tampered.Finalize()
		if v := jlint.VerifyReport(mod, tampered); len(v) == 0 {
			t.Errorf("%s: tampered report verified clean", c.ID)
		}
		// A report bound to different module content must be rejected.
		other := &jlint.Report{Version: rep.Version, Module: rep.Module,
			ModHash: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}
		other.Finalize()
		if v := jlint.VerifyReport(mod, other); len(v) == 0 {
			t.Errorf("%s: wrong-hash report verified clean", c.ID)
		}
	}
}
