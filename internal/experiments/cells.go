package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// allSchemes is the dynamic axis of the cell matrix: every evaluated
// scheme, Native first.
var allSchemes = []Scheme{
	Native, NullClient,
	JASanHybrid, JASanHybridBase, JASanSCEV, JASanElide, JASanDyn, Valgrind, Retrowrite,
	JCFIHybrid, JCFIForward, JCFINarrow, JCFIDyn, Lockdown, LockdownWeak, BinCFI,
	JMSanHybrid, JMSanElide, JMSanDyn, ValgrindDef,
	JTSanHybrid, JTSanElide, JTSanDyn, ValgrindTemp,
	Comprehensive,
}

// CellReport is the BENCH_CELLS.json artifact: every cell of the matrix,
// and the per-(scheme, backend) summary derived from those cells alone.
type CellReport struct {
	Cells   []*Result `json:"cells"`
	Summary []Summary `json:"summary"`
}

// Summary is one (scheme, backend) column's suite-wide cost: the geomean
// slowdown over the workloads the scheme could run, and its attributed
// overhead decomposed into component fractions.
type Summary struct {
	Scheme          Scheme  `json:"scheme"`
	Backend         Backend `json:"backend"`
	GeomeanSlowdown float64 `json:"geomean_slowdown"`
	// Benchmarks counts the workloads contributing to the geomean (a
	// scheme's applicability gates can exclude some).
	Benchmarks int `json:"benchmarks"`
	// OverheadCycles is the attributed overhead summed over the column's
	// profiled cells: Cycles−NativeCycles, by the identity Cells enforces.
	// Unprofiled cells (native, static, hybrid) add nothing.
	OverheadCycles uint64 `json:"overhead_cycles"`
	// Fractions of OverheadCycles; they sum to 1 (up to rounding) when
	// OverheadCycles is non-zero.
	ShadowUpdateFrac float64 `json:"shadow_update_frac"`
	CheckFrac        float64 `json:"check_frac"`
	ElidedFrac       float64 `json:"elided_frac"`
	DispatchFrac     float64 `json:"dispatch_frac"`
	OtherFrac        float64 `json:"other_frac"`
}

// Cells runs the evaluation matrix over name-sorted workloads: every
// scheme on the DBM with cost attribution, plus every rewrite scheme on the
// static and hybrid backends. Cells a scheme cannot run stay in the matrix
// as x marks with their Reason. Every profiled cell must satisfy the
// attribution identity — the application center reproduces the native
// cycles and the other centers sum to the overhead — or Cells returns a
// hard error. Deterministic at any parallelism.
func Cells(scale int, names ...string) (*CellReport, error) {
	ws := sortedSet(scale, names...)
	dyn, err := runGrid(ws, allSchemes, dynamicOnly, probeProfile)
	if err != nil {
		return nil, err
	}
	// The static and hybrid backends: the bake-off's axis without its
	// dynamic reference, which the profiled grid already ran.
	aot, err := runGrid(ws, rewriteSchemes, rewriteBackends[1:], probeNone)
	if err != nil {
		return nil, err
	}
	cells := append(dyn.cells, aot.cells...)
	for _, c := range cells {
		if c.Profile == nil {
			continue
		}
		b := c.Profile.Breakdown()
		if b.App != c.NativeCycles {
			return nil, fmt.Errorf("%s/%s: app center %d cycles != native %d",
				c.Benchmark, c.Scheme, b.App, c.NativeCycles)
		}
		if got, want := b.Overhead(), c.Cycles-c.NativeCycles; got != want {
			return nil, fmt.Errorf("%s/%s: components sum to %d, overhead is %d",
				c.Benchmark, c.Scheme, got, want)
		}
	}
	return &CellReport{Cells: cells, Summary: summarize(cells)}, nil
}

// summarize folds cells into one Summary per (scheme, backend) column, in
// the order the columns first appear. It reads nothing but the cells, so a
// summary recomputed from a decoded BENCH_CELLS.json equals the written
// one bit for bit.
func summarize(cells []*Result) []Summary {
	type key struct {
		s Scheme
		b Backend
	}
	var order []key
	cols := map[key][]*Result{}
	for _, c := range cells {
		k := key{c.Scheme, c.Backend}
		col, seen := cols[k]
		if !seen {
			order = append(order, k)
		}
		if !c.Failed {
			col = append(col, c)
		}
		cols[k] = col
	}
	var out []Summary
	for _, k := range order {
		col := cols[k]
		var total telemetry.Breakdown
		for _, c := range col {
			b := c.Profile.Breakdown()
			total.ShadowUpdate += b.ShadowUpdate
			total.Check += b.Check
			total.Elided += b.Elided
			total.Dispatch += b.Dispatch
			total.Other += b.Other
		}
		overhead := total.Overhead()
		frac := func(v uint64) float64 {
			if overhead == 0 {
				return 0
			}
			return float64(v) / float64(overhead)
		}
		out = append(out, Summary{
			Scheme: k.s, Backend: k.b,
			GeomeanSlowdown:  geomean(col, slowdown),
			Benchmarks:       len(col),
			OverheadCycles:   overhead,
			ShadowUpdateFrac: frac(total.ShadowUpdate),
			CheckFrac:        frac(total.Check),
			ElidedFrac:       frac(total.Elided),
			DispatchFrac:     frac(total.Dispatch),
			OtherFrac:        frac(total.Other),
		})
	}
	return out
}

// FormatCells renders the summary as a table: one row per (scheme,
// backend) column, its geomean and the shares of its attributed overhead.
func FormatCells(rep *CellReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-8s %9s %6s %8s %8s %8s %8s %8s\n",
		"scheme", "backend", "geomean", "n", "shadow", "check", "elided", "dispatch", "other")
	for _, s := range rep.Summary {
		fmt.Fprintf(&b, "%-18s %-8s %8.2fx %6d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			s.Scheme, s.Backend, s.GeomeanSlowdown, s.Benchmarks,
			100*s.ShadowUpdateFrac, 100*s.CheckFrac, 100*s.ElidedFrac,
			100*s.DispatchFrac, 100*s.OtherFrac)
	}
	return strings.TrimRight(b.String(), "\n")
}

// FormatJSON renders a study's rows or report as indented JSON: the whole
// BENCH_*.json artifact.
func FormatJSON(v any) string {
	j, _ := json.MarshalIndent(v, "", "  ")
	return string(j) + "\n"
}
