package experiments

import "fmt"

// jtsanStudy is the temporal memory-safety study: every workload under
// JTSan-hybrid, JTSan-hybrid+elision, JTSan-dyn, the memcheck-style
// generation-tag baseline and the combined jasan+jmsan+jtsan+jcfi
// configuration. Cycles are the study's headline metric (the repository's
// performance methodology: slowdown is the weighted-cycle ratio, which is
// where the memcheck model's clean-call expense lives). The cells'
// retired-instruction counts and the cost centers decomposing the temporal
// overhead are in BENCH_CELLS.json.
var jtsanStudy = rowStudy{
	title:   "JTSan temporal memory-safety study (weighted cycle slowdown vs native)",
	schemes: []Scheme{JTSanHybrid, JTSanElide, JTSanDyn, ValgrindTemp, Comprehensive},
	// Elision removes only proven-safe checks, so the elide cell must
	// report exactly the violations the hybrid cell reports.
	check: func(c cells) error {
		if h, e := c(JTSanHybrid).Violations, c(JTSanElide).Violations; h != e {
			return fmt.Errorf("elision changed the report count: hybrid %d, elide %d", h, e)
		}
		return nil
	},
	cols: []column{
		{"jtsan_slowdown", slowdownOf(JTSanHybrid)},
		{"jtsan_elide_slowdown", slowdownOf(JTSanElide)},
		{"jtsan_dyn_slowdown", slowdownOf(JTSanDyn)},
		{"valgrind_temporal_slowdown", slowdownOf(ValgrindTemp)},
		{"comprehensive_slowdown", slowdownOf(Comprehensive)},
		// The MEM_ACCESS_SAFE(no-escape) rules the VSA proofs emitted for
		// the elide cell, and the hybrid cell's use-after-free/double-free
		// reports.
		{"gen_checks_elided", func(c cells) any { return c(JTSanElide).ElidedChecks }},
		{"violations", func(c cells) any { return c(JTSanHybrid).Violations }},
	},
	head:  "%-14s%10s%10s%10s%15s%10s%8s%6s\n",
	line:  "%-14s%10.3f%10.3f%10.3f%15.3f%10.3f%8d%6d\n",
	heads: "benchmark jtsan elide dyn valgrind-temp comp elided viol",
	keys: "benchmark jtsan_slowdown jtsan_elide_slowdown jtsan_dyn_slowdown " +
		"valgrind_temporal_slowdown comprehensive_slowdown gen_checks_elided violations",
	summary: func(rows []row) string {
		hybrid, elide := geomeanCol(rows, "jtsan_slowdown"), geomeanCol(rows, "jtsan_elide_slowdown")
		vtemp := geomeanCol(rows, "valgrind_temporal_slowdown")
		out := fmt.Sprintf("geomean: jtsan %.3fx, jtsan-elide %.3fx, jtsan-dyn %.3fx, valgrind-temporal %.3fx, comprehensive %.3fx\n",
			hybrid, elide, geomeanCol(rows, "jtsan_dyn_slowdown"), vtemp,
			geomeanCol(rows, "comprehensive_slowdown"))
		if hybrid < vtemp {
			out += fmt.Sprintf("note: JTSan geomean slowdown beats the generation-tag memcheck model (%.3fx < %.3fx)\n",
				hybrid, vtemp)
		} else {
			out += fmt.Sprintf("note: WARNING: JTSan geomean does not beat the memcheck model (%.3fx >= %.3fx)\n",
				hybrid, vtemp)
		}
		if elide <= hybrid {
			return out + fmt.Sprintf("note: no-escape elision never costs cycles (%.3fx <= %.3fx)\n",
				elide, hybrid)
		}
		return out + fmt.Sprintf("note: WARNING: elide geomean exceeds hybrid (%.3fx > %.3fx)\n",
			elide, hybrid)
	},
}

// JTSan runs the temporal memory-safety study and renders it as a table,
// the per-scheme geomeans and the memcheck and elision notes.
func JTSan(scale int, names ...string) (string, error) {
	return jtsanStudy.run(scale, names)
}
