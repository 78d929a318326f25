package main

import "strings"

// metricDef is one reported metric; BENCHMARK.json lists the same names,
// units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the tools waits on or pays for, reported by
// the untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are reported by the traced run of every workload. Times and
// counts are per traced round; a layer a workload does not cross reads 0.
var perLayer = append([]metricDef{
	{"vm.native_s", "s", "lower"},
	{"vm.ns_per_instr", "ns", "lower"},
	{"dbm.run_s", "s", "lower"},
	{"dbm.ns_per_instr", "ns", "lower"},
	{"dbm.blocks_built", "count", "lower"},
	{"dbm.block_execs", "count", "lower"},
	{"dbm.indirect_dispatch", "count", "lower"},
	{"dbm.cache_hits", "count", "higher"},
	{"dbm.flushes", "count", "lower"},
	{"dbm.dynamic_block_frac", "frac", "lower"},
	{"loader.load_s", "s", "lower"},
	{"loader.loads", "count", "lower"},
	{"rewrite.capture_s", "s", "lower"},
	{"rewrite.apply_s", "s", "lower"},
	{"rewrite.run_static_s", "s", "lower"},
	{"rewrite.run_hybrid_s", "s", "lower"},
	{"rewrite.refused_funcs", "count", "lower"},
	{"rewrite.hybrid_dbm_blocks", "count", "lower"},
	{"cc.build_s", "s", "lower"},
	{"cc.modules", "count", "lower"},
	{"core.analyze_module_s", "s", "lower"},
	{"cfg.build_s", "s", "lower"},
	{"analysis.liveness_s", "s", "lower"},
	{"vsa.analyze_s", "s", "lower"},
	{"jlint.analyze_s", "s", "lower"},
	{"anserve.analyze_program_s", "s", "lower"},
	{"anserve.hit_ratio", "frac", "higher"},
	{"anserve.analyzed", "count", "lower"},
	{"anserve.coalesced", "count", "higher"},
	{"anserve.rejected", "count", "lower"},
	{"anserve.errors", "count", "lower"},
	{"anserve.run_p50_ms", "ms", "lower"},
	{"anserve.analyze_p50_ms", "ms", "lower"},
	{"diag.collect_s", "s", "lower"},
	{"diag.records", "count", "lower"},
}, simulatedLayers()...)

// simulatedLayers are each dynamic scheme's overhead shares by cost center
// and its simulated slowdown, then the tracing overhead.
func simulatedLayers() []metricDef {
	var out []metricDef
	for _, s := range dynamicSchemes {
		for _, part := range []string{"check", "shadow", "dispatch"} {
			out = append(out, metricDef{"profile." + s + "." + part + "_frac", "frac", "lower"})
		}
	}
	for _, s := range dynamicSchemes {
		out = append(out, metricDef{"sim_slowdown." + s, "x", "lower"})
	}
	return append(out, metricDef{"trace_overhead_frac", "frac", "lower"})
}

// layerValues derives the per-layer metrics that come straight from spans
// and counters: a "<span>_s" metric is the span's self time, a count is
// the counter, both per traced round.
func layerValues(tr *tracer, rounds int) map[string]float64 {
	self, durs, counts := tr.totals()
	per := float64(max(rounds, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals := map[string]float64{}
	for _, d := range perLayer {
		switch {
		case strings.HasSuffix(d.name, "_s"):
			vals[d.name] = self[strings.TrimSuffix(d.name, "_s")] / per
		case d.unit == "count":
			vals[d.name] = counts[d.name] / per
		}
	}
	vals["vm.ns_per_instr"] = ratio(self["vm.native"]*1e9, counts["vm.instrs"])
	vals["dbm.ns_per_instr"] = ratio(self["dbm.run"]*1e9, counts["dbm.instrs"])
	vals["dbm.dynamic_block_frac"] = ratio(counts["dbm.fallback_blocks"], counts["dbm.classified_blocks"])
	vals["anserve.hit_ratio"] = ratio(counts["anserve.cache_hits"], counts["anserve.submitted"])
	vals["anserve.run_p50_ms"] = 1e3 * median(durs["http.run"])
	vals["anserve.analyze_p50_ms"] = 1e3 * median(durs["http.analyze"])
	return vals
}
