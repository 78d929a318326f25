// Package repro's top-level benchmark harness: one benchmark per table and
// figure of the paper's evaluation (Figs. 7–14 and the §6.2.2 soundness
// study), plus ablation benchmarks for the design decisions DESIGN.md calls
// out. Each benchmark regenerates its figure over the full 28-benchmark
// suite and reports the headline geomeans as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Run with -benchtime=1x (the default n=1
// iteration already measures simulated cycles, not wall time).
package repro

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/experiments"
	"repro/internal/jasan"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/vm"
)

// geomeanRow extracts a row geomean from a figure.
func geomeanRow(fig *experiments.Figure, label string) float64 {
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

// BenchmarkFig7 regenerates Figure 7 (JASan vs Valgrind vs Retrowrite).
// Paper geomeans: Valgrind 9.83x, JASan-dyn 4.55x, Retrowrite 2.98x,
// JASan-hybrid 2.98x.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanRow(fig, "valgrind"), "valgrind-x")
		b.ReportMetric(geomeanRow(fig, "jasan-dyn"), "jasan-dyn-x")
		b.ReportMetric(geomeanRow(fig, "retrowrite"), "retrowrite-x")
		b.ReportMetric(geomeanRow(fig, "jasan-hybrid"), "jasan-hybrid-x")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (JASan overhead breakdown).
// Paper: the liveness optimisation improves the hybrid by 27%.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanRow(fig, "null-client"), "null-x")
		b.ReportMetric(geomeanRow(fig, "jasan-hybrid"), "hybrid-full-x")
		b.ReportMetric(geomeanRow(fig, "jasan-hybrid-base"), "hybrid-base-x")
		b.ReportMetric(geomeanRow(fig, "jasan-dyn"), "dyn-x")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (JCFI vs Lockdown vs BinCFI).
// Paper geomeans: Lockdown 1.21x, JCFI-dyn 1.37x, JCFI-hybrid 1.29x,
// BinCFI 1.22x.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanRow(fig, "lockdown"), "lockdown-x")
		b.ReportMetric(geomeanRow(fig, "jcfi-dyn"), "jcfi-dyn-x")
		b.ReportMetric(geomeanRow(fig, "jcfi-hybrid"), "jcfi-hybrid-x")
		b.ReportMetric(geomeanRow(fig, "bincfi"), "bincfi-x")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig10 regenerates Figure 10 (Juliet CWE-122 security properties).
// Paper: Valgrind TP 504 / FN 120; JASan TP 528 / FN 96; both 0 FP.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.JASan.TP), "jasan-TP")
		b.ReportMetric(float64(r.JASan.FN), "jasan-FN")
		b.ReportMetric(float64(r.Valgrind.TP), "valgrind-TP")
		b.ReportMetric(float64(r.Valgrind.FN), "valgrind-FN")
		if i == 0 {
			b.Log("\n" + r.Format())
		}
	}
}

// BenchmarkFig11 regenerates Figure 11 (forward vs backward CFI cost).
// Paper: 1.15x forward-only, 1.29x with the shadow stack.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig11(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanRow(fig, "null-client"), "null-x")
		b.ReportMetric(geomeanRow(fig, "jcfi-forward"), "forward-x")
		b.ReportMetric(geomeanRow(fig, "jcfi-hybrid"), "full-x")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig12 regenerates Figure 12 (dynamic AIR).
// Paper: Lockdown(S) highest but unsound; JCFI-hybrid 99.8% > JCFI-dyn
// 99.6% > Lockdown(W).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig12(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanRow(fig, "lockdown"), "lockdownS-DAIR%")
		b.ReportMetric(geomeanRow(fig, "jcfi-dyn"), "jcfi-dyn-DAIR%")
		b.ReportMetric(geomeanRow(fig, "jcfi-hybrid"), "jcfi-hyb-DAIR%")
		b.ReportMetric(geomeanRow(fig, "lockdown-weak"), "lockdownW-DAIR%")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig13 regenerates Figure 13 (static AIR).
// Paper: JCFI >99.7%, BinCFI 98.8%, BinCFI x on gamess/zeusmp.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geomeanRow(fig, "jcfi"), "jcfi-AIR%")
		b.ReportMetric(geomeanRow(fig, "bincfi"), "bincfi-AIR%")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkFig14 regenerates Figure 14 (dynamically discovered blocks).
// Paper: mean 4.44%, cactusADM 92.4%, lbm 18.7%.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig14(1)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, bench := range fig.Benchmarks {
			sum += fig.Rows[0].Values[bench]
		}
		b.ReportMetric(sum/float64(len(fig.Benchmarks)), "mean-dynamic-%")
		b.ReportMetric(fig.Rows[0].Values["cactusADM"], "cactusADM-%")
		b.ReportMetric(fig.Rows[0].Values["lbm"], "lbm-%")
		if i == 0 {
			b.Log("\n" + fig.Format())
		}
	}
}

// BenchmarkSoundness regenerates the §6.2.2 study: Lockdown(S) false
// positives on gcc/h264ref/cactusADM; JCFI none.
func BenchmarkSoundness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Soundness(1)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rs {
			total += r.LockdownStrongFPs
		}
		b.ReportMetric(float64(total), "lockdownS-FPs")
		if i == 0 {
			b.Log("\n" + experiments.FormatSoundness(rs))
		}
	}
}

// BenchmarkAblationSCEV measures the SCEV check-hoisting design decision
// (§3.3.2): the hybrid with hoisting versus without, over loop-regular
// workloads.
func BenchmarkAblationSCEV(b *testing.B) {
	names := []string{"hmmer", "libquantum", "bwaves", "milc", "sphinx3"}
	for i := 0; i < b.N; i++ {
		var plain, scev []float64
		for _, n := range names {
			w := spec.ByName(n)
			rp, err := experiments.Run(w, experiments.JASanHybrid)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := experiments.Run(w, experiments.JASanSCEV)
			if err != nil {
				b.Fatal(err)
			}
			plain = append(plain, rp.Slowdown)
			scev = append(scev, rs.Slowdown)
		}
		p, s := metrics.Geomean(plain), metrics.Geomean(scev)
		b.ReportMetric(p, "hybrid-x")
		b.ReportMetric(s, "hybrid+scev-x")
		b.ReportMetric(100*(1-(s-1)/(p-1)), "scev-saving-%")
	}
}

// BenchmarkAblationNoOpRules measures the no-op marking design decision
// (§3.3.4). Without NO_OP rules a hybrid framework cannot tell "statically
// proven to need nothing" from "never statically seen"; the Janus-style
// resolution — treat every rule-less block as needing no treatment — loses
// coverage of dynamically discovered code. The benchmark plants a heap
// overflow in a dlopened plugin and reports detections with the marking
// (fallback instruments the unseen code) and without it (the overflow is
// silently missed).
func BenchmarkAblationNoOpRules(b *testing.B) {
	const pluginSrc = `
int poke(int n) {
    char *buf = malloc(n);
    for (int i = 0; i <= n; i++) buf[i] = i;   // one byte past the object
    int s = buf[0];
    free(buf);
    return s;
}`
	const hostSrc = `
int main() {
    int h = dlopen("plug.jef", 8);
    if (h == 0) return 9;
    int (*poke)(int) = dlsym(h, "poke", 4);
    if (poke == 0) return 8;
    poke(24);
    return 0;
}`
	runOnce := func(janusStyle bool) uint64 {
		plug, err := cc.Compile(pluginSrc, cc.Options{
			Module: "plug.jef", Shared: true, O2: true, NoRuntime: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		host, err := cc.Compile(hostSrc, cc.Options{Module: "host", O2: true})
		if err != nil {
			b.Fatal(err)
		}
		lj, err := libj.Module()
		if err != nil {
			b.Fatal(err)
		}
		reg := loader.Registry{libj.Name: lj, "plug.jef": plug}
		tool := jasan.New(jasan.Config{UseLiveness: true})
		var client core.Tool = tool
		if janusStyle {
			client = &janusStyleTool{tool}
		}
		files, err := core.AnalyzeProgram(host, reg, client)
		if err != nil {
			b.Fatal(err)
		}
		m := vm.New()
		m.InstallDefaultServices()
		m.MaxInstrs = 100_000_000
		proc := loader.NewProcess(m, reg)
		rt := core.NewRuntime(m, proc, client, files)
		lm, err := proc.LoadProgram(host)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Run(lm.RuntimeAddr(host.Entry)); err != nil {
			b.Fatal(err)
		}
		return tool.Report.Total
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(runOnce(false)), "detected-with-noop")
		b.ReportMetric(float64(runOnce(true)), "detected-janus-style")
	}
}

// janusStyleTool wraps JASan but, like Janus, treats any block without
// rewrite rules as needing no treatment — no dynamic fallback analysis.
type janusStyleTool struct{ *jasan.Tool }

func (t *janusStyleTool) BlockRules(*dbm.BlockContext) map[uint64][]rules.Rule { return nil }
