package experiments

import (
	"encoding/json"

	"repro/internal/spec"
)

// BenchRow is one scheme's suite-wide cost summary: the geometric mean of
// its per-benchmark slowdowns over the workloads it can run, written by
// scripts/bench.sh into BENCH_JANITIZER.json.
type BenchRow struct {
	Scheme Scheme `json:"scheme"`
	// Backend identifies the execution backend the row measured —
	// "dynamic" for the ordinary DBM rows, "static"/"hybrid" for the
	// AOT-rewriting bake-off rows.
	Backend         Backend `json:"backend"`
	GeomeanSlowdown float64 `json:"geomean_slowdown"`
	// Benchmarks counts the workloads contributing to the geomean (a
	// scheme's applicability gates can exclude some).
	Benchmarks int `json:"benchmarks"`
}

// benchSchemes are the Janitizer configurations the benchmark gate tracks:
// each tool's hybrid and elision-enabled variants plus the combined
// jasan+jmsan+jtsan+jcfi configuration.
var benchSchemes = []Scheme{
	JASanHybrid, JASanElide,
	JCFIHybrid,
	JMSanHybrid, JMSanElide,
	JTSanHybrid, JTSanElide,
	Comprehensive,
}

// Bench runs every tracked scheme over the workload suite and folds each
// scheme's slowdowns into one geomean row. Rows come out in a fixed scheme
// order and each geomean is computed over name-sorted workloads, so the
// output is byte-identical across runs and parallelism settings.
func Bench(scale int, names ...string) ([]BenchRow, error) {
	return benchRows(sortedSet(scale, names...), benchSchemes, dynamicOnly)
}

// benchRows runs the grid and folds each (scheme, backend) column into one
// geomean row, scheme-major.
func benchRows(workloads []*spec.Workload, schemes []Scheme, backends []Backend) ([]BenchRow, error) {
	g, err := runGrid(workloads, schemes, backends, probeNone)
	if err != nil {
		return nil, err
	}
	var rows []BenchRow
	for si := range schemes {
		for bi := range backends {
			rows = append(rows, g.summary(si, bi))
		}
	}
	return rows, nil
}

// FormatJSON renders a study's rows or report as indented JSON: the whole
// BENCH_*.json artifact.
func FormatJSON(v any) string {
	j, _ := json.MarshalIndent(v, "", "  ")
	return string(j) + "\n"
}
