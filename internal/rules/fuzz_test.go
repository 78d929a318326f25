package rules_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/libj"
	"repro/internal/registry"
	"repro/internal/rules"
)

// realRuleFiles returns libj's rule files under three tools: the bytes
// janitizer writes, the analysis cache stores and peers fill from.
func realRuleFiles(t testing.TB) [][]byte {
	t.Helper()
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, tool := range []string{"jasan", "jcfi", "comprehensive"} {
		f, err := core.AnalyzeModule(lj, registry.MustNew(tool))
		if err != nil {
			t.Fatalf("%s: %v", tool, err)
		}
		out = append(out, f.Marshal())
	}
	return out
}

// malformedRuleFiles returns every checked-in malformed rule file.
func malformedRuleFiles(t testing.TB) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "malformed", "*.jrw"))
	if err != nil || len(names) == 0 {
		t.Fatalf("malformed rule corpus missing: %v (%d files)", err, len(names))
	}
	out := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = data
	}
	return out
}

// FuzzReadRules mirrors FuzzReadPlan: hostile rule-file bytes must give
// ErrBadRuleFile or a file that re-marshals to exactly the input, never a
// panic. Explore with `go test -fuzz=FuzzReadRules ./internal/rules`.
func FuzzReadRules(f *testing.F) {
	for _, data := range realRuleFiles(f) {
		f.Add(data)
	}
	for _, data := range malformedRuleFiles(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := rules.Unmarshal(data)
		if err != nil {
			if !errors.Is(err, rules.ErrBadRuleFile) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		if !bytes.Equal(file.Marshal(), data) {
			t.Fatal("accepted rule file does not re-marshal to its input")
		}
	})
}

// TestMalformedRuleCorpusRejected replays the checked-in corpus: every file
// in it is malformed and must be rejected with ErrBadRuleFile.
func TestMalformedRuleCorpusRejected(t *testing.T) {
	for name, data := range malformedRuleFiles(t) {
		if _, err := rules.Unmarshal(data); !errors.Is(err, rules.ErrBadRuleFile) {
			t.Errorf("%s: got %v, want ErrBadRuleFile", name, err)
		}
	}
}
