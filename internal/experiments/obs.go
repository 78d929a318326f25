package experiments

import (
	"bytes"
	"fmt"
	"math"
)

// ObsRow is one scheme's observability-overhead summary, written by
// scripts/bench.sh into BENCH_OBS.json. The row both reports the cost of
// the full observability stack (per-run spans, structured-diagnostics
// collection, exemplared duration histograms) and certifies the PR's
// zero-cost-when-disabled invariant: the plain and observed runs of every
// cell must agree cycle-exactly.
type ObsRow struct {
	Scheme Scheme `json:"scheme"`
	// Benchmarks counts the workloads contributing to the row.
	Benchmarks int `json:"benchmarks"`
	// GeomeanSlowdown is the scheme's instrumented-vs-native geomean over
	// the contributing workloads (context for the overhead column).
	GeomeanSlowdown float64 `json:"geomean_slowdown"`
	// CyclesIdentical certifies that every observed run measured exactly
	// the same Cycles, Instrs, exit status and output bytes as its plain
	// twin — observability lives entirely outside the VM's cycle model.
	// Obs hard-errors on any divergence, so a written row is always true.
	CyclesIdentical bool `json:"cycles_identical"`
	// Spans is the number of root spans the scheme's tracer retained;
	// ViolationRecords the structured diag records collected (zero on the
	// safe benchmark suite — any nonzero value is tool noise).
	Spans            int `json:"spans"`
	ViolationRecords int `json:"violation_records"`
	// MeanOverheadPct is the mean host wall-clock overhead of the observed
	// run over the plain run per cell, measured with warm analysis caches.
	// It is a host-side timing (the only nondeterministic column).
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
}

// obsSchemes are the configurations the observability overhead figure
// tracks: each tool's hybrid variant, the elision ablation, and the
// combined four-tool configuration.
var obsSchemes = []Scheme{
	JASanHybrid, JASanElide,
	JCFIHybrid,
	JMSanHybrid, JTSanHybrid,
	Comprehensive,
}

// Obs measures the observability stack's cost over the workload suite and
// gates the disabled-path invariant. The grid runs three times: once to
// warm the shared analysis cache, so the timed passes measure execution
// rather than analysis; once plain; once with every scheme's obsSink
// attached. Each cell's plain and observed runs must agree on Cycles,
// Instrs, exit status and output bytes — any divergence is a hard error,
// because it would mean tracing or diagnostics leaked into the measured
// execution.
func Obs(scale int, names ...string) ([]ObsRow, error) {
	workloads := sortedSet(scale, names...)
	if _, err := runGrid(workloads, obsSchemes, dynamicOnly, probeNone); err != nil {
		return nil, err
	}
	plain, err := runGrid(workloads, obsSchemes, dynamicOnly, probeNone)
	if err != nil {
		return nil, err
	}
	observed, err := runGrid(workloads, obsSchemes, dynamicOnly, probeTrace)
	if err != nil {
		return nil, err
	}

	sums := summarize(observed.cells)
	var rows []ObsRow
	for si, s := range obsSchemes {
		var sum float64
		n := 0
		for wi, w := range workloads {
			p, o := plain.at(wi, si, 0), observed.at(wi, si, 0)
			if p.Failed || o.Failed {
				continue
			}
			if p.Cycles != o.Cycles || p.Instrs != o.Instrs ||
				p.ExitStatus != o.ExitStatus || !bytes.Equal(p.Output, o.Output) {
				return nil, fmt.Errorf(
					"%s/%s: observability perturbed the run: plain %d cycles %d instrs, observed %d cycles %d instrs",
					w.Name, s, p.Cycles, p.Instrs, o.Cycles, o.Instrs)
			}
			if p.elapsed > 0 {
				sum += float64(o.elapsed-p.elapsed) / float64(p.elapsed) * 100
				n++
			}
		}
		var mean float64
		if n > 0 {
			mean = math.Round(sum/float64(n)*100) / 100
		}
		rows = append(rows, ObsRow{
			Scheme:           s,
			Benchmarks:       sums[si].Benchmarks,
			GeomeanSlowdown:  sums[si].GeomeanSlowdown,
			CyclesIdentical:  true,
			Spans:            len(observed.sinks[si].tr.Snapshot(0)),
			ViolationRecords: observed.sinks[si].dlog.Len(),
			MeanOverheadPct:  mean,
		})
	}
	return rows, nil
}
