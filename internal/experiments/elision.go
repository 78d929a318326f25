package experiments

import "fmt"

// elisionSchemes are the four cells measured per benchmark.
var elisionSchemes = []Scheme{JASanHybrid, JASanElide, JCFIHybrid, JCFINarrow}

// elisionStudy is the check-elision study: every workload under
// JASan-hybrid with and without VSA elision, and JCFI-hybrid with and
// without target narrowing — how many JASan checks the static proofs
// removed, how many indirect branches JCFI narrowed to inline target sets,
// and the retired-instruction counts with and without the proofs applied.
var elisionStudy = rowStudy{
	title:   "VSA proof-carrying elision study (retired instructions)",
	schemes: elisionSchemes,
	// Violations must be zero in all cells (the safe workloads are
	// benign); a violation under an elision scheme only is a soundness bug.
	check: func(c cells) error {
		for _, s := range elisionSchemes {
			if n := c(s).Violations; n > 0 {
				return fmt.Errorf("%s: %d violations on benign run", s, n)
			}
		}
		return nil
	},
	cols: []column{
		{"elided_checks", func(c cells) any { return c(JASanElide).ElidedChecks }},
		{"narrowed_branches", func(c cells) any { return c(JCFINarrow).NarrowedBranches }},
		{"jasan_instrs", instrsOf(JASanHybrid)},
		{"jasan_elide_instrs", instrsOf(JASanElide)},
		{"jcfi_instrs", instrsOf(JCFIHybrid)},
		{"jcfi_narrow_instrs", instrsOf(JCFINarrow)},
		// The JASan retired-instruction change from elision, in percent
		// (negative = fewer instructions).
		{"instr_delta_pct", func(c cells) any {
			h, e := c(JASanHybrid).Instrs, c(JASanElide).Instrs
			if h == 0 {
				return 0.0
			}
			return 100 * (float64(e) - float64(h)) / float64(h)
		}},
	},
	head:  "%-14s%8s%8s%14s%14s%9s%14s%14s\n",
	line:  "%-14s%8d%8d%14d%14d%+9.2f%14d%14d\n",
	heads: "benchmark elided narrow jasan jasan-elide delta% jcfi jcfi-narrow",
	keys: "benchmark elided_checks narrowed_branches jasan_instrs jasan_elide_instrs " +
		"instr_delta_pct jcfi_instrs jcfi_narrow_instrs",
	summary: func(rows []row) string {
		improved := 0
		for _, r := range rows {
			if r["jasan_elide_instrs"].(uint64) < r["jasan_instrs"].(uint64) {
				improved++
			}
		}
		return fmt.Sprintf("note: JASan instruction count dropped on %d of %d benchmarks\n",
			improved, len(rows))
	},
}

// Elision runs the check-elision study and renders it as a table and a
// summary note.
func Elision(scale int, names ...string) (string, error) {
	return elisionStudy.run(scale, names)
}
