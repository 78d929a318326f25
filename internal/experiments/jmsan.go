package experiments

import "fmt"

// jmsanStudy is the uninitialized-memory study: every workload under
// JMSan-hybrid, JMSan-hybrid+elision, JMSan-dyn, the memcheck-style
// validity-bit baseline and the combined jasan+jmsan+jtsan+jcfi
// configuration. Like every other study its headline is the weighted-cycle
// slowdown against native, which is where the memcheck model's clean-call
// expense lives.
var jmsanStudy = rowStudy{
	title:   "JMSan uninitialized-memory study (weighted cycle slowdown vs native)",
	schemes: []Scheme{JMSanHybrid, JMSanElide, JMSanDyn, ValgrindDef, Comprehensive},
	// Elision is checked for soundness in the report dimension: it removes
	// only proven-initialized checks, so the elide cell must report exactly
	// the violations the hybrid cell reports.
	check: func(c cells) error {
		if h, e := c(JMSanHybrid).Violations, c(JMSanElide).Violations; h != e {
			return fmt.Errorf("elision changed the report count: hybrid %d, elide %d", h, e)
		}
		return nil
	},
	cols: []column{
		{"jmsan_slowdown", slowdownOf(JMSanHybrid)},
		{"jmsan_elide_slowdown", slowdownOf(JMSanElide)},
		{"jmsan_dyn_slowdown", slowdownOf(JMSanDyn)},
		{"valgrind_def_slowdown", slowdownOf(ValgrindDef)},
		{"comprehensive_slowdown", slowdownOf(Comprehensive)},
		// The MEM_ACCESS_SAFE(def-init) rules the VSA proofs emitted for
		// the elide cell, and the hybrid cell's uninitialized-read reports.
		{"def_checks_elided", func(c cells) any { return c(JMSanElide).ElidedChecks }},
		{"violations", func(c cells) any { return c(JMSanHybrid).Violations }},
	},
	head:  "%-14s%10s%10s%10s%14s%10s%8s%6s\n",
	line:  "%-14s%10.3f%10.3f%10.3f%14.3f%10.3f%8d%6d\n",
	heads: "benchmark jmsan elide dyn valgrind-def comp elided viol",
	keys: "benchmark jmsan_slowdown jmsan_elide_slowdown jmsan_dyn_slowdown " +
		"valgrind_def_slowdown comprehensive_slowdown def_checks_elided violations",
	summary: func(rows []row) string {
		hybrid, vdef := geomeanCol(rows, "jmsan_slowdown"), geomeanCol(rows, "valgrind_def_slowdown")
		out := fmt.Sprintf("geomean: jmsan %.3fx, jmsan-elide %.3fx, jmsan-dyn %.3fx, valgrind-def %.3fx, comprehensive %.3fx\n",
			hybrid, geomeanCol(rows, "jmsan_elide_slowdown"), geomeanCol(rows, "jmsan_dyn_slowdown"),
			vdef, geomeanCol(rows, "comprehensive_slowdown"))
		if hybrid < vdef {
			return out + fmt.Sprintf("note: JMSan geomean slowdown beats the validity-bit memcheck model (%.3fx < %.3fx)\n",
				hybrid, vdef)
		}
		return out + fmt.Sprintf("note: WARNING: JMSan geomean does not beat the memcheck model (%.3fx >= %.3fx)\n",
			hybrid, vdef)
	},
}

// JMSan runs the uninitialized-memory study and renders it as a table, the
// per-scheme geomeans and the memcheck comparison.
func JMSan(scale int, names ...string) (string, error) {
	return jmsanStudy.run(scale, names)
}
