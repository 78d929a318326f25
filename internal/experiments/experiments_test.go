package experiments

import (
	"strings"
	"testing"

	"repro/internal/juliet"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// quickSet is a representative subset covering every workload trait, keeping
// the test suite fast; the bench harness runs the full figures.
var quickSet = []string{"perlbench", "mcf", "hmmer", "lbm", "cactusADM", "gamess", "omnetpp"}

func TestRunNativeAndSchemes(t *testing.T) {
	w := spec.ByName("mcf")
	res, err := Run(w, Native)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown != 1 || res.Cycles == 0 {
		t.Fatalf("native result implausible: %+v", res)
	}
	for _, s := range []Scheme{NullClient, JASanHybrid, JCFIHybrid} {
		r, err := Run(w, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.Failed {
			t.Fatalf("%s unexpectedly failed: %s", s, r.Reason)
		}
		if r.Slowdown < 1 {
			t.Errorf("%s: slowdown %.3f < 1", s, r.Slowdown)
		}
		if r.Violations != 0 {
			t.Errorf("%s: violations on benign workload: %d", s, r.Violations)
		}
	}
	if _, err := Run(w, Scheme("bogus")); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestApplicabilityGates(t *testing.T) {
	// Retrowrite refuses non-C.
	r, err := Run(spec.ByName("bwaves"), Retrowrite)
	if err != nil || !r.Failed {
		t.Fatalf("retrowrite on fortran: failed=%v err=%v", r.Failed, err)
	}
	// Lockdown fails on omnetpp/dealII.
	r, err = Run(spec.ByName("omnetpp"), Lockdown)
	if err != nil || !r.Failed {
		t.Fatalf("lockdown on omnetpp: failed=%v err=%v", r.Failed, err)
	}
	// BinCFI fails on data-in-code modules.
	r, err = Run(spec.ByName("gamess"), BinCFI)
	if err != nil || !r.Failed {
		t.Fatalf("bincfi on gamess: failed=%v err=%v", r.Failed, err)
	}
	if !strings.Contains(r.Reason, "code/data") {
		t.Errorf("bincfi failure reason = %q", r.Reason)
	}
}

// geomeanOf extracts the geomean of a labelled row.
func geomeanOf(fig *Figure, label string) float64 {
	for _, row := range fig.Rows {
		if row.Label != label {
			continue
		}
		var vals []float64
		for _, b := range fig.Benchmarks {
			if v, ok := row.Values[b]; ok && v > 0 {
				vals = append(vals, v)
			}
		}
		return metrics.Geomean(vals)
	}
	return 0
}

// TestFig7Shape checks the paper's headline ordering on the quick subset:
// Valgrind >> JASan-dyn >> JASan-hybrid ~ Retrowrite.
func TestFig7Shape(t *testing.T) {
	fig, err := Fig7(1, quickSet...)
	if err != nil {
		t.Fatal(err)
	}
	vg := geomeanOf(fig, string(Valgrind))
	dyn := geomeanOf(fig, string(JASanDyn))
	hyb := geomeanOf(fig, string(JASanHybrid))
	rw := geomeanOf(fig, string(Retrowrite))
	t.Logf("valgrind=%.2f dyn=%.2f hybrid=%.2f retrowrite=%.2f", vg, dyn, hyb, rw)
	if !(vg > dyn && dyn > hyb) {
		t.Errorf("ordering broken: valgrind %.2f > dyn %.2f > hybrid %.2f expected", vg, dyn, hyb)
	}
	if vg < 2*hyb {
		t.Errorf("valgrind (%.2f) should dwarf hybrid (%.2f)", vg, hyb)
	}
	if rw > 0 && (hyb > 1.8*rw || rw > 1.8*hyb) {
		t.Errorf("hybrid (%.2f) and retrowrite (%.2f) should be comparable", hyb, rw)
	}
}

// TestFig8Shape: the liveness optimisation (full vs base) must deliver a
// real improvement (paper: 27%).
func TestFig8Shape(t *testing.T) {
	fig, err := Fig8(1, quickSet...)
	if err != nil {
		t.Fatal(err)
	}
	null := geomeanOf(fig, string(NullClient))
	full := geomeanOf(fig, string(JASanHybrid))
	base := geomeanOf(fig, string(JASanHybridBase))
	dyn := geomeanOf(fig, string(JASanDyn))
	t.Logf("null=%.2f full=%.2f base=%.2f dyn=%.2f", null, full, base, dyn)
	if !(null < full && full < base) {
		t.Errorf("ordering: null %.2f < full %.2f < base %.2f expected", null, full, base)
	}
	improvement := 1 - (full-1)/(base-1)
	if improvement < 0.10 {
		t.Errorf("liveness improvement %.0f%% too small (paper: 27%%)", improvement*100)
	}
	if base > dyn*1.05 {
		t.Errorf("hybrid-base (%.2f) should not exceed dyn (%.2f)", base, dyn)
	}
}

// TestFig9Shape: CFI overheads all land in the low-overhead band and
// JCFI-dyn costs more than JCFI-hybrid.
func TestFig9Shape(t *testing.T) {
	fig, err := Fig9(1, quickSet...)
	if err != nil {
		t.Fatal(err)
	}
	ld := geomeanOf(fig, string(Lockdown))
	dyn := geomeanOf(fig, string(JCFIDyn))
	hyb := geomeanOf(fig, string(JCFIHybrid))
	bin := geomeanOf(fig, string(BinCFI))
	t.Logf("lockdown=%.2f jcfi-dyn=%.2f jcfi-hybrid=%.2f bincfi=%.2f", ld, dyn, hyb, bin)
	for n, v := range map[string]float64{"lockdown": ld, "jcfi-dyn": dyn,
		"jcfi-hybrid": hyb, "bincfi": bin} {
		if v < 1.0 || v > 3.5 {
			t.Errorf("%s slowdown %.2f outside the CFI band", n, v)
		}
	}
	if dyn <= hyb {
		t.Errorf("jcfi-dyn (%.2f) must cost more than jcfi-hybrid (%.2f)", dyn, hyb)
	}
	if bin >= hyb {
		t.Errorf("static bincfi (%.2f) should undercut the hybrid (%.2f)", bin, hyb)
	}
}

// TestFig11Shape: forward-only < full.
func TestFig11Shape(t *testing.T) {
	fig, err := Fig11(1, quickSet...)
	if err != nil {
		t.Fatal(err)
	}
	null := geomeanOf(fig, string(NullClient))
	fwd := geomeanOf(fig, string(JCFIForward))
	full := geomeanOf(fig, string(JCFIHybrid))
	t.Logf("null=%.2f forward=%.2f full=%.2f", null, fwd, full)
	if !(null <= fwd && fwd < full) {
		t.Errorf("ordering: null %.2f <= forward %.2f < full %.2f expected", null, fwd, full)
	}
}

// TestFig12Shape: the published DAIR ordering — Lockdown(S) >= JCFI-hybrid >
// JCFI-dyn > Lockdown(W), all very high.
func TestFig12Shape(t *testing.T) {
	fig, err := Fig12(1, quickSet...)
	if err != nil {
		t.Fatal(err)
	}
	ldS := geomeanOf(fig, string(Lockdown))
	dyn := geomeanOf(fig, string(JCFIDyn))
	hyb := geomeanOf(fig, string(JCFIHybrid))
	ldW := geomeanOf(fig, string(LockdownWeak))
	t.Logf("lockdown-S=%.3f jcfi-dyn=%.3f jcfi-hybrid=%.3f lockdown-W=%.3f", ldS, dyn, hyb, ldW)
	// Lockdown(S) edges the hybrid on the full suite only slightly (its
	// jump AIR is actually lower, footnote 15), so allow subset noise.
	if !(ldS >= hyb-0.2 && hyb > dyn && dyn >= ldW-0.1) {
		t.Errorf("DAIR ordering broken: S=%.3f hybrid=%.3f dyn=%.3f W=%.3f",
			ldS, hyb, dyn, ldW)
	}
	if hyb < 98 {
		t.Errorf("JCFI-hybrid DAIR %.2f%% below the >99%% band", hyb)
	}
}

// TestFig13Shape: static AIR — JCFI above BinCFI, BinCFI x on gamess/zeusmp.
func TestFig13Shape(t *testing.T) {
	fig, err := Fig13("perlbench", "gcc", "gamess", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	j := geomeanOf(fig, "jcfi")
	b := geomeanOf(fig, "bincfi")
	t.Logf("jcfi=%.3f bincfi=%.3f", j, b)
	if j <= b {
		t.Errorf("JCFI AIR (%.3f) must exceed BinCFI (%.3f)", j, b)
	}
	if j < 99 {
		t.Errorf("JCFI static AIR %.2f below the paper's >99.7%% band", j)
	}
	foundX := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "gamess/bincfi") {
			foundX = true
		}
	}
	if !foundX {
		t.Error("gamess should be an x for bincfi")
	}
}

// TestFig14Shape: cactusADM dominated by dynamic blocks, lbm's two hidden
// blocks visible, fully-static benchmarks at zero.
func TestFig14Shape(t *testing.T) {
	fig, err := Fig14(1, "perlbench", "hmmer", "lbm", "cactusADM")
	if err != nil {
		t.Fatal(err)
	}
	vals := fig.Rows[0].Values
	if vals["cactusADM"] < 80 {
		t.Errorf("cactusADM dynamic fraction %.1f%%, want ~92%%", vals["cactusADM"])
	}
	if vals["lbm"] < 8 || vals["lbm"] > 30 {
		t.Errorf("lbm dynamic fraction %.1f%%, want ~18%%", vals["lbm"])
	}
	if vals["hmmer"] != 0 {
		t.Errorf("hmmer dynamic fraction %.1f%%, want 0", vals["hmmer"])
	}
}

// TestSoundnessStudy: Lockdown(S) false-positives on exactly the paper's
// three callback benchmarks; the weak policy and JCFI are clean.
func TestSoundnessStudy(t *testing.T) {
	rs, err := Soundness(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("soundness rows = %d", len(rs))
	}
	for _, r := range rs {
		if r.LockdownStrongFPs == 0 {
			t.Errorf("%s: lockdown strong produced no false positives", r.Benchmark)
		}
		if r.LockdownWeakFPs != 0 {
			t.Errorf("%s: lockdown weak false positives: %d", r.Benchmark, r.LockdownWeakFPs)
		}
		if r.JCFIFPs != 0 {
			t.Errorf("%s: JCFI false positives: %d", r.Benchmark, r.JCFIFPs)
		}
	}
	if !strings.Contains(FormatSoundness(rs), "gcc") {
		t.Error("soundness table malformed")
	}
}

// TestFig10Exact: the Juliet table must reproduce the paper's numbers
// exactly (the suite was constructed so detector behaviour, not fiat,
// yields them). Subset here; TestFig10Full in -short=false mode and the
// bench harness run all 624.
func TestFig10Subset(t *testing.T) {
	cases := juliet.Suite()
	// One of each kind, eight of each where it matters.
	var sel []juliet.Case
	byKind := map[juliet.Kind]int{}
	for _, c := range cases {
		if byKind[c.Kind] < 4 {
			byKind[c.Kind]++
			sel = append(sel, c)
		}
	}
	vg, err := juliet.Evaluate(juliet.Valgrind, sel)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := juliet.Evaluate(juliet.JASan, sel)
	if err != nil {
		t.Fatal(err)
	}
	if vg.FP != 0 || ja.FP != 0 {
		t.Errorf("false positives: valgrind %d, jasan %d", vg.FP, ja.FP)
	}
	// JASan misses only heap→stack; Valgrind misses those plus doubles.
	if ja.FNByKind[juliet.HeapToStack] != 4 || ja.FN != 4 {
		t.Errorf("jasan FN = %v", ja.FNByKind)
	}
	if vg.FNByKind[juliet.HeapToStack] != 4 || vg.FNByKind[juliet.HeapToHeapDouble] != 4 {
		t.Errorf("valgrind FN = %v", vg.FNByKind)
	}
}

func TestFig10Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full 624-case suite: run without -short")
	}
	r, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if r.JASan.TP != 528 || r.JASan.FN != 96 || r.JASan.FP != 0 || r.JASan.TN != 624 {
		t.Errorf("JASan tally = %v, want TP=528 FN=96 FP=0 TN=624", r.JASan)
	}
	if r.Valgrind.TP != 504 || r.Valgrind.FN != 120 || r.Valgrind.FP != 0 || r.Valgrind.TN != 624 {
		t.Errorf("Valgrind tally = %v, want TP=504 FN=120 FP=0 TN=624", r.Valgrind)
	}
	t.Log("\n" + r.Format())
}

func TestFigureFormatting(t *testing.T) {
	fig, err := Fig14(1, "lbm")
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Format()
	if !strings.Contains(s, "Figure 14") || !strings.Contains(s, "lbm") {
		t.Errorf("format output malformed:\n%s", s)
	}
}
