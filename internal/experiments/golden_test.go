package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/registry"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

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

// TestCycleGolden pins every simulated cycle and instruction count of the
// suite, natively, under the dynamic schemes and on both rewriting
// backends. Host-only changes (the executor, caches, telemetry) must leave
// the file byte-identical; regenerate it with -update only for a change
// that moves simulated numbers on purpose.
func TestCycleGolden(t *testing.T) {
	type cell struct {
		name string
		res  *Result
	}
	var cells []cell
	dyn, err := runGrid(workloadSet(1), append([]Scheme{Native}, goldenDynamic...),
		dynamicOnly, probeNone)
	if err != nil {
		t.Fatal(err)
	}
	for wi, w := range dyn.workloads {
		cells = append(cells, cell{w.Name + "/native", dyn.at(wi, 0, 0)})
		for si, s := range goldenDynamic {
			cells = append(cells, cell{w.Name + "/" + string(s) + "/dynamic", dyn.at(wi, si+1, 0)})
		}
	}
	backends := []Backend{BackendStatic, BackendHybrid}
	rw, err := runGrid(workloadSet(1, goldenRewrite...), rewriteSchemes, backends, probeNone)
	if err != nil {
		t.Fatal(err)
	}
	for wi, w := range rw.workloads {
		for si, s := range rewriteSchemes {
			for bi, b := range backends {
				cells = append(cells, cell{w.Name + "/" + string(s) + "/" + string(b), rw.at(wi, si, bi)})
			}
		}
	}

	lines := make([]string, len(cells))
	t.Run("cell", func(t *testing.T) {
		for i, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				if c.res.Failed {
					t.Fatalf("failed: %s", c.res.Reason)
				}
				lines[i] = fmt.Sprintf("%s cycles=%d instrs=%d exit=%d out=%x",
					c.name, c.res.Cycles, c.res.Instrs, c.res.ExitStatus, sha256.Sum256(c.res.Output))
			})
		}
	})
	if t.Failed() {
		return
	}
	checkGolden(t, goldenPath, strings.Join(lines, "\n")+"\n")
}

// studyGoldenPath holds the rendered output of every study that runs
// through the cell grid, on studyGoldenSet, plus the soundness study.
var studyGoldenPath = filepath.Join("testdata", "studies.golden")

// studyGoldenSet includes every kind of x mark the studies render:
// retrowrite and bincfi refuse gamess, lockdown fails on omnetpp.
var studyGoldenSet = []string{"mcf", "lbm", "gamess", "omnetpp"}

// TestStudyGolden pins every figure table, note and BENCH artifact of the
// grid studies, BENCH_CELLS.json included, byte for byte, at whatever
// parallelism the test runs with. The only host wall-clock column,
// BENCH_OBS's mean_overhead_pct, is blanked. Regenerate with -update only
// for a change that moves a study's output on purpose.
func TestStudyGolden(t *testing.T) {
	var b strings.Builder
	section := func(name, text string) {
		fmt.Fprintf(&b, "== %s ==\n%s", name, text)
		if !strings.HasSuffix(text, "\n") {
			b.WriteByte('\n')
		}
	}
	must := func(name string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, f := range []struct {
		name string
		run  func(int, ...string) (*Figure, error)
	}{
		{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9},
		{"fig11", Fig11}, {"fig12", Fig12}, {"fig14", Fig14},
	} {
		fig, err := f.run(1, studyGoldenSet...)
		must(f.name, err)
		section(f.name, fig.Format())
	}
	sound, err := Soundness(1)
	must("soundness", err)
	section("soundness", FormatSoundness(sound))
	for _, st := range []struct {
		name string
		run  func(int, ...string) (string, error)
	}{{"elision", Elision}, {"jmsan", JMSan}, {"jtsan", JTSan}} {
		text, err := st.run(1, studyGoldenSet...)
		must(st.name, err)
		section(st.name, text)
	}
	cells, err := Cells(1, studyGoldenSet...)
	must("cells", err)
	section("cells", FormatJSON(cells)+FormatCells(cells))
	obs, err := Obs(1, studyGoldenSet...)
	must("obs", err)
	for i := range obs {
		obs[i].MeanOverheadPct = 0
	}
	section("obs", FormatJSON(obs))
	checkGolden(t, studyGoldenPath, b.String())
}

// checkGolden compares got against the golden file at path line by line,
// or rewrites the file under -update.
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

// staticGoldenPath holds the static side of the evaluation: the digest of
// every rule file and proof set, the Fig. 10 table and the static-vs-dynamic
// detection matrices.
var staticGoldenPath = filepath.Join("testdata", "static.golden")

// staticGoldenSchemes are the schemes whose static stage runs, except the
// PIC-only retrowrite.
var staticGoldenSchemes = []Scheme{
	JASanHybrid, JASanHybridBase, JASanSCEV, JASanElide,
	JCFIHybrid, JCFIForward, JCFINarrow, BinCFI,
	JMSanHybrid, JMSanElide, JTSanHybrid, JTSanElide, Comprehensive,
}

// TestStaticGolden pins every rule file and proof set the static analyzer
// writes for every module of every workload under every static scheme, by
// SHA-256, plus the Fig. 10 table and the Static study's confusion
// matrices (its two wall-clock columns blanked). A refactor of a tool's
// static pass or its emitters must leave the file byte-identical.
func TestStaticGolden(t *testing.T) {
	var b strings.Builder
	for _, w := range workloadSet(1) {
		main, reg, err := w.Build(false)
		if err != nil {
			t.Fatal(err)
		}
		mods, err := loader.LddClosure(main, reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staticGoldenSchemes {
			for _, mod := range mods {
				e, err := registry.LookupStatic(string(s))
				if err != nil {
					t.Fatal(err)
				}
				f, proofs, err := core.AnalyzeModuleProofs(mod, e.New())
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.Name, s, mod.Name, err)
				}
				pb, err := proofs.Marshal()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.Name, s, mod.Name, err)
				}
				fmt.Fprintf(&b, "%s/%s/%s rules=%x proofs=%x\n",
					w.Name, s, mod.Name, sha256.Sum256(f.Marshal()), sha256.Sum256(pb))
			}
		}
	}
	fig10, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== fig10 ==\n" + fig10.Format())
	st, err := Static(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Rows {
		st.Rows[i].StaticMS, st.Rows[i].DynMS = 0, 0
	}
	b.WriteString("== static ==\n" + FormatJSON(st))
	checkGolden(t, staticGoldenPath, b.String())
}
