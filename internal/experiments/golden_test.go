package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cycles.golden from this run")

// goldenPath holds one line per (program, scheme, backend) cell: cycles,
// retired instructions, exit status and the SHA-256 of the program output.
var goldenPath = filepath.Join("testdata", "cycles.golden")

// goldenDynamic are the dynamic schemes the golden pins: the paper's
// configuration of each tool, JASan with elision, and all four composed.
var goldenDynamic = []Scheme{
	JASanHybrid, JASanElide, JCFIHybrid, JMSanHybrid, JTSanHybrid, Comprehensive,
}

// goldenRewrite are the programs the golden runs on the static and hybrid
// rewriting backends.
var goldenRewrite = []string{"mcf", "lbm"}

type goldenCell struct {
	name string
	run  func() (*Result, error)
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, w := range workloadSet(1) {
		w := w
		cells = append(cells, goldenCell{w.Name + "/native", func() (*Result, error) {
			return runNative(w, false)
		}})
		for _, s := range goldenDynamic {
			s := s
			cells = append(cells, goldenCell{w.Name + "/" + string(s) + "/dynamic",
				func() (*Result, error) { return Run(w, s) }})
		}
	}
	for _, w := range workloadSet(1, goldenRewrite...) {
		w := w
		for _, s := range rewriteSchemes {
			for _, b := range []Backend{BackendStatic, BackendHybrid} {
				s, b := s, b
				cells = append(cells, goldenCell{w.Name + "/" + string(s) + "/" + string(b),
					func() (*Result, error) { return RunBackend(w, s, b) }})
			}
		}
	}
	return cells
}

// TestCycleGolden pins every simulated cycle and instruction count of the
// suite, natively, under the dynamic schemes and on both rewriting
// backends. Host-only changes (the executor, caches, telemetry) must leave
// the file byte-identical; regenerate it with -update only for a change
// that moves simulated numbers on purpose.
func TestCycleGolden(t *testing.T) {
	cells := goldenCells()
	lines := make([]string, len(cells))
	t.Run("cell", func(t *testing.T) {
		for i, c := range cells {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				res, err := c.run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed {
					t.Fatalf("failed: %s", res.Reason)
				}
				lines[i] = fmt.Sprintf("%s cycles=%d instrs=%d exit=%d out=%x",
					c.name, res.Cycles, res.Instrs, res.ExitStatus, sha256.Sum256(res.Output))
			})
		}
	})
	if t.Failed() {
		return
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d cells, run has %d", len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("cell %d differs:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}
