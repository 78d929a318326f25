// Package metrics provides the evaluation arithmetic shared by the
// experiment harness: slowdown ratios, geometric means and average
// indirect-target reduction (AIR) aggregation.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Slowdown returns cycles/base as the paper's slowdown factor.
func Slowdown(cycles, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return float64(cycles) / float64(base)
}

// Geomean returns the geometric mean of vs, ignoring non-positive entries
// (benchmarks a scheme failed to run are excluded, as in the paper's
// per-scheme geomeans).
func Geomean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// AIRAccumulator aggregates per-CTI target-set fractions into the average
// indirect-target reduction metric of Zhang & Sekar: AIR = 1 - mean(|T|/S).
type AIRAccumulator struct {
	sumFrac float64
	sites   int
}

// Add records one indirect CTI with |T| allowed targets out of a space of S.
func (a *AIRAccumulator) Add(targets, space float64) {
	if space <= 0 {
		return
	}
	f := targets / space
	if f > 1 {
		f = 1
	}
	a.sumFrac += f
	a.sites++
}

// Sites returns the number of recorded CTIs.
func (a *AIRAccumulator) Sites() int { return a.sites }

// Percent returns the AIR as a percentage (higher is better).
func (a *AIRAccumulator) Percent() float64 {
	if a.sites == 0 {
		return 0
	}
	return 100 * (1 - a.sumFrac/float64(a.sites))
}

// AIR returns the AIR percentage of CTIs with the given allowed-target set
// sizes out of a space of S. It sorts sizes in place and sums in that
// order, so the result is bit-identical whatever order the sizes came in —
// map iteration order included.
func AIR(sizes []float64, space float64) float64 {
	sort.Float64s(sizes)
	var a AIRAccumulator
	for _, n := range sizes {
		a.Add(n, space)
	}
	return a.Percent()
}

// Row is one labelled series of per-benchmark values; Table formats rows the
// way the paper's figures report them.
type Row struct {
	Label  string
	Values map[string]float64
}

// FormatTable renders rows as a table with one line per benchmark and one
// column per row label, appending a geomean line. Missing values print as
// "x" (a scheme that failed to run that benchmark, as in the figures).
func FormatTable(title string, benchmarks []string, rows []Row, unit string) string {
	out := title + "\n"
	out += fmt.Sprintf("%-14s", "benchmark")
	for _, r := range rows {
		out += fmt.Sprintf("%16s", r.Label)
	}
	out += "\n"
	perRow := make([][]float64, len(rows))
	for _, bm := range benchmarks {
		out += fmt.Sprintf("%-14s", bm)
		for i, r := range rows {
			v, ok := r.Values[bm]
			if !ok {
				out += fmt.Sprintf("%16s", "x")
				continue
			}
			if v > 0 {
				perRow[i] = append(perRow[i], v)
			}
			out += fmt.Sprintf("%16.2f", v)
		}
		out += "\n"
	}
	out += fmt.Sprintf("%-14s", "geomean")
	for i := range rows {
		out += fmt.Sprintf("%16.2f", Geomean(perRow[i]))
	}
	if unit != "" {
		out += "  " + unit
	}
	out += "\n"
	return out
}

// SortedKeys returns map keys in sorted order (stable table output).
func SortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
