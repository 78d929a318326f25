package experiments

import (
	"fmt"

	"repro/internal/telemetry"
)

// jtsanStudy is the temporal memory-safety study: every workload under
// JTSan-hybrid, JTSan-hybrid+elision, JTSan-dyn, the memcheck-style
// generation-tag baseline and the combined jasan+jmsan+jtsan+jcfi
// configuration. Cycles are the study's headline metric (the repository's
// performance methodology: slowdown is the weighted-cycle ratio, which is
// where the memcheck model's clean-call expense lives); raw
// retired-instruction counts ride along as informational columns. Every
// cell runs profiled, so the hybrid and elide cells also carry the
// telemetry cost centers decomposing the temporal overhead into generation
// checking, quarantine maintenance and proof-elided residue.
var jtsanStudy = rowStudy{
	title: "JTSan temporal memory-safety study (weighted cycle slowdown vs native)",
	tag:   "BENCH_JTSAN",
	schemes: []Scheme{Native, JTSanHybrid, JTSanElide, JTSanDyn,
		ValgrindTemp, Comprehensive},
	probe: probeProfile,
	// Elision removes only proven-safe checks, so the elide cell must
	// report exactly the violations the hybrid cell reports.
	check: func(c cells) error {
		if h, e := c(JTSanHybrid).Violations, c(JTSanElide).Violations; h != e {
			return fmt.Errorf("elision changed the report count: hybrid %d, elide %d", h, e)
		}
		return nil
	},
	cols: []column{
		{"native_cycles", cyclesOf(Native)},
		{"jtsan_cycles", cyclesOf(JTSanHybrid)},
		{"jtsan_elide_cycles", cyclesOf(JTSanElide)},
		{"jtsan_dyn_cycles", cyclesOf(JTSanDyn)},
		{"valgrind_temporal_cycles", cyclesOf(ValgrindTemp)},
		{"comprehensive_cycles", cyclesOf(Comprehensive)},
		{"jtsan_slowdown", slowdownOf(JTSanHybrid)},
		{"jtsan_elide_slowdown", slowdownOf(JTSanElide)},
		{"jtsan_dyn_slowdown", slowdownOf(JTSanDyn)},
		{"valgrind_temporal_slowdown", slowdownOf(ValgrindTemp)},
		{"comprehensive_slowdown", slowdownOf(Comprehensive)},
		// Informational retired-instruction counts. JTSan and the memcheck
		// model instrument the same access set with a similar inline
		// footprint, so these columns tie closely — the baseline's cost
		// difference is in its clean-call cycle weights.
		{"native_instrs", instrsOf(Native)},
		{"jtsan_instrs", instrsOf(JTSanHybrid)},
		{"jtsan_elide_instrs", instrsOf(JTSanElide)},
		{"valgrind_temporal_instrs", instrsOf(ValgrindTemp)},
		// The MEM_ACCESS_SAFE(no-escape) rules the VSA proofs emitted for
		// the elide cell, and the hybrid cell's use-after-free/double-free
		// reports.
		{"gen_checks_elided", func(c cells) any { return c(JTSanElide).ElidedChecks }},
		{"violations", func(c cells) any { return c(JTSanHybrid).Violations }},
		// Cost centers: the hybrid cell's inline generation checks and
		// quarantine allocator work; the elide cell's generation checks
		// after elision, plus residue at elided sites (expected zero —
		// elided rules must emit no code).
		{"gen_check_cycles", centerOf(JTSanHybrid, telemetry.CCGenCheck)},
		{"quarantine_cycles", centerOf(JTSanHybrid, telemetry.CCQuarantine)},
		{"elide_gen_check_cycles", centerOf(JTSanElide, telemetry.CCGenCheck)},
		{"elided_cycles", centerOf(JTSanElide, telemetry.CCElided)},
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

// centerOf reads the cycles a scheme's profiled run charged to one cost
// center.
func centerOf(s Scheme, cc telemetry.CostCenter) func(cells) any {
	return func(c cells) any { return c(s).Profile.Cycles[cc] }
}

// JTSan runs the temporal memory-safety study and renders it as a table,
// the per-scheme geomeans, and one `BENCH_JTSAN {json}` line per benchmark.
func JTSan(scale int, names ...string) (string, error) {
	return jtsanStudy.run(scale, names)
}
