package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/spec"
)

// Figure is one regenerated table/figure: per-benchmark series plus the
// formatted text the jexp tool prints.
type Figure struct {
	Title      string
	Unit       string
	Benchmarks []string
	Rows       []metrics.Row
	// Notes records failures (x marks) and commentary.
	Notes []string
}

// Format renders the figure as text.
func (f *Figure) Format() string {
	out := metrics.FormatTable(f.Title, f.Benchmarks, f.Rows, f.Unit)
	for _, n := range f.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// sweep runs the given schemes over workloads on the DBM and renders one
// Row per scheme with the chosen metric. Cells a scheme cannot run become
// x-mark notes, in serial (workload, scheme) order.
func sweep(title, unit string, workloads []*spec.Workload, schemes []Scheme,
	metric func(*Result) float64) (*Figure, error) {

	g, err := runGrid(workloads, schemes, dynamicOnly, probeNone)
	if err != nil {
		return nil, err
	}
	fig := &Figure{Title: title, Unit: unit}
	for wi, w := range workloads {
		fig.Benchmarks = append(fig.Benchmarks, w.Name)
		for si, s := range schemes {
			if res := g.at(wi, si, 0); res.Failed {
				fig.Notes = append(fig.Notes,
					fmt.Sprintf("%s/%s: x (%s)", w.Name, s, res.Reason))
			}
		}
	}
	for si, s := range schemes {
		row := metrics.Row{Label: string(s), Values: map[string]float64{}}
		for _, res := range g.column(si, 0) {
			row.Values[res.Benchmark] = metric(res)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// slowdown is the Figure 7/8/9/11 metric.
func slowdown(r *Result) float64 { return r.Slowdown }

// Fig7 regenerates Figure 7: JASan (binary ASan) overhead versus the
// dynamic-only Valgrind and static-only Retrowrite baselines.
// Paper geomeans: Valgrind 9.83×, JASan-dyn 4.55×, Retrowrite 2.98× (C
// benchmarks only), JASan-hybrid 2.98×.
func Fig7(scale int, names ...string) (*Figure, error) {
	return sweep("Figure 7: JASan overhead vs native (slowdown factor)", "slowdown",
		workloadSet(scale, names...),
		[]Scheme{Valgrind, JASanDyn, Retrowrite, JASanHybrid}, slowdown)
}

// Fig8 regenerates Figure 8: JASan's overhead breakdown — DynamoRIO null
// client, conservative hybrid (base), liveness-optimised hybrid (full),
// dynamic-only. Paper: full improves 27% over base.
func Fig8(scale int, names ...string) (*Figure, error) {
	return sweep("Figure 8: JASan overhead breakdown (slowdown factor)", "slowdown",
		workloadSet(scale, names...),
		[]Scheme{NullClient, JASanHybrid, JASanHybridBase, JASanDyn}, slowdown)
}

// Fig9 regenerates Figure 9: JCFI overhead versus Lockdown and BinCFI.
// Paper geomeans: Lockdown 1.21×, JCFI-dyn 1.37×, JCFI-hybrid 1.29×,
// BinCFI 1.22×.
func Fig9(scale int, names ...string) (*Figure, error) {
	return sweep("Figure 9: JCFI overhead vs native (slowdown factor)", "slowdown",
		workloadSet(scale, names...),
		[]Scheme{Lockdown, JCFIDyn, JCFIHybrid, BinCFI}, slowdown)
}

// Fig11 regenerates Figure 11: forward-only versus full (forward+shadow-
// stack) JCFI. Paper: 1.15× forward-only, 1.29× full.
func Fig11(scale int, names ...string) (*Figure, error) {
	return sweep("Figure 11: forward/backward contribution to JCFI overhead (slowdown factor)", "slowdown",
		workloadSet(scale, names...),
		[]Scheme{NullClient, JCFIForward, JCFIHybrid}, slowdown)
}

// Fig12 regenerates Figure 12: dynamic AIR for Lockdown strong, JCFI-dyn,
// JCFI-hybrid and Lockdown weak. Paper: JCFI-hybrid 99.8% dropping to 99.6%
// without static analysis; Lockdown(S) slightly higher but unsound.
func Fig12(scale int, names ...string) (*Figure, error) {
	return sweep("Figure 12: dynamic average indirect-target reduction, DAIR (%)", "% DAIR",
		workloadSet(scale, names...),
		[]Scheme{Lockdown, JCFIDyn, JCFIHybrid, LockdownWeak},
		func(r *Result) float64 { return r.DAIR })
}

// Fig13 regenerates Figure 13: static AIR of JCFI versus BinCFI.
// Paper: JCFI >99.7%, BinCFI 98.8%.
func Fig13(names ...string) (*Figure, error) {
	fig := &Figure{Title: "Figure 13: static average indirect-target reduction, AIR (%)", Unit: "% AIR"}
	jcfiRow := metrics.Row{Label: "jcfi", Values: map[string]float64{}}
	binRow := metrics.Row{Label: "bincfi", Values: map[string]float64{}}
	workloads := workloadSet(1, names...)
	type airCell struct {
		jAIR, bAIR float64
		bFailed    string
		err        error
	}
	cells := make([]airCell, len(workloads))
	runJobs(len(cells), func(i int) {
		c := &cells[i]
		c.jAIR, c.bAIR, c.bFailed, c.err = StaticAIR(workloads[i])
	})
	for i, w := range workloads {
		c := &cells[i]
		if c.err != nil {
			return nil, c.err
		}
		fig.Benchmarks = append(fig.Benchmarks, w.Name)
		jcfiRow.Values[w.Name] = c.jAIR
		if c.bFailed != "" {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s/bincfi: x (%s)", w.Name, c.bFailed))
		} else {
			binRow.Values[w.Name] = c.bAIR
		}
	}
	fig.Rows = []metrics.Row{jcfiRow, binRow}
	return fig, nil
}

// Fig14 regenerates Figure 14: the fraction of executed basic blocks only
// discovered dynamically. Paper: mean 4.4%, cactusADM 92.4%, lbm 18.7%.
func Fig14(scale int, names ...string) (*Figure, error) {
	fig, err := sweep("Figure 14: executed basic blocks only discovered dynamically (%)", "% dynamic",
		workloadSet(scale, names...), []Scheme{JASanHybrid},
		func(r *Result) float64 { return 100 * r.Coverage.DynamicFraction() })
	if err != nil {
		return nil, err
	}
	fig.Rows[0].Label = "dynamic-blocks"
	// The paper reports the arithmetic mean (4.44%), which keeps the many
	// all-static benchmarks in the denominator.
	sum := 0.0
	for _, b := range fig.Benchmarks {
		sum += fig.Rows[0].Values[b]
	}
	if n := len(fig.Benchmarks); n > 0 {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("arithmetic mean: %.2f%%", sum/float64(n)))
	}
	return fig, nil
}

// SoundnessResult captures the §6.2.2 study: false positives on benign
// callback-using benchmarks.
type SoundnessResult struct {
	Benchmark         string
	LockdownStrongFPs int
	LockdownWeakFPs   int
	JCFIFPs           int
}

// Soundness reruns the callback benchmarks (gcc, h264ref, cactusADM) under
// Lockdown strong/weak and JCFI-hybrid, counting false positives on benign
// executions. Paper: Lockdown(S) false-positives on all three; JCFI none.
func Soundness(scale int) ([]SoundnessResult, error) {
	var workloads []*spec.Workload
	for _, n := range []string{"gcc", "h264ref", "cactusADM"} {
		workloads = append(workloads, workloadSet(scale, n)...)
	}
	g, err := runGrid(workloads, []Scheme{Lockdown, LockdownWeak, JCFIHybrid},
		dynamicOnly, probeNone)
	if err != nil {
		return nil, err
	}
	var out []SoundnessResult
	for wi, w := range workloads {
		// A failed cell reports no violations.
		out = append(out, SoundnessResult{
			Benchmark:         w.Name,
			LockdownStrongFPs: g.cell(wi, Lockdown).Violations,
			LockdownWeakFPs:   g.cell(wi, LockdownWeak).Violations,
			JCFIFPs:           g.cell(wi, JCFIHybrid).Violations,
		})
	}
	return out, nil
}

// FormatSoundness renders the soundness study.
func FormatSoundness(rs []SoundnessResult) string {
	var b strings.Builder
	b.WriteString("Soundness (§6.2.2): false positives on benign callback workloads\n")
	fmt.Fprintf(&b, "%-14s%18s%18s%10s\n", "benchmark", "lockdown-strong", "lockdown-weak", "jcfi")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-14s%18d%18d%10d\n",
			r.Benchmark, r.LockdownStrongFPs, r.LockdownWeakFPs, r.JCFIFPs)
	}
	return b.String()
}
