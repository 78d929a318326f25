package experiments

import (
	"fmt"
	"strings"
)

// cells reads one workload's results by scheme.
type cells func(Scheme) *Result

// A column is one field of a per-workload study row: its key and the value
// it reads off the workload's cells.
type column struct {
	key string
	get func(cells) any
}

func instrsOf(s Scheme) func(cells) any   { return func(c cells) any { return c(s).Instrs } }
func slowdownOf(s Scheme) func(cells) any { return func(c cells) any { return c(s).Slowdown } }

// A row is one workload's column values, by key.
type row map[string]any

// geomeanCol is the geometric mean of a float column over rows.
func geomeanCol(rows []row, key string) float64 {
	return geomean(rows, func(r row) float64 { return r[key].(float64) })
}

// A rowStudy is a study with one row per workload: a scheme selection run
// on the DBM, the cross-cell check every workload must pass, the columns of
// its rows, and how it renders them — a title, a table over the columns,
// then summary lines. Rows come in workload-name order, so the text is
// byte-identical across runs and parallelism settings. The cells behind
// every row are in BENCH_CELLS.json (Cells).
type rowStudy struct {
	title   string
	schemes []Scheme
	// check is the cross-cell assertion every workload must pass.
	check func(cells) error
	cols  []column
	// head and line format the table's header and rows; heads are the
	// header cells and keys the row's columns, space-separated, both led
	// by the benchmark column.
	head, line, heads, keys string
	summary                 func([]row) string
}

func (s *rowStudy) run(scale int, names []string) (string, error) {
	g, err := runGrid(sortedSet(scale, names...), s.schemes, dynamicOnly, probeNone)
	if err != nil {
		return "", err
	}
	var rows []row
	for wi, w := range g.workloads {
		c := func(sc Scheme) *Result { return g.cell(wi, sc) }
		if err := s.check(c); err != nil {
			return "", fmt.Errorf("%s: %w", w.Name, err)
		}
		r := row{"benchmark": w.Name}
		for _, col := range s.cols {
			r[col.key] = col.get(c)
		}
		rows = append(rows, r)
	}

	var b strings.Builder
	b.WriteString(s.title + "\n")
	fmt.Fprintf(&b, s.head, fields(s.heads, func(h string) any { return h })...)
	for _, r := range rows {
		fmt.Fprintf(&b, s.line, fields(s.keys, func(k string) any { return r[k] })...)
	}
	b.WriteString(s.summary(rows))
	return b.String(), nil
}

// fields maps each space-separated field of list through f.
func fields(list string, f func(string) any) []any {
	var out []any
	for _, x := range strings.Fields(list) {
		out = append(out, f(x))
	}
	return out
}
