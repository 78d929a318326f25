package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/spec"
)

// benchSchemes are the Janitizer configurations the attribution test
// tracks: each tool's hybrid and elision-enabled variants plus the combined
// jasan+jmsan+jtsan+jcfi configuration.
var benchSchemes = []Scheme{
	JASanHybrid, JASanElide,
	JCFIHybrid,
	JMSanHybrid, JMSanElide,
	JTSanHybrid, JTSanElide,
	Comprehensive,
}

// TestProfileAttributionSumsExactly is the acceptance criterion on a CI-fast
// subset: per (benchmark, scheme) cell the attributed components sum
// exactly to the instrumented-minus-native cycle delta, and the app cost
// center reproduces the native measurement. Cells itself enforces both
// identities per profiled cell, so this test is a run of the harness plus
// structural checks on the artifact.
func TestProfileAttributionSumsExactly(t *testing.T) {
	rep, err := Cells(1, "mcf", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	var rows []*Result
	for _, c := range rep.Cells {
		if c.Backend == BackendDynamic && slices.Contains(benchSchemes, c.Scheme) {
			rows = append(rows, c)
		}
	}
	if want := 2 * len(benchSchemes); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, row := range rows {
		b := row.Profile.Breakdown()
		if got, want := b.Overhead(), row.Cycles-row.NativeCycles; got != want {
			t.Errorf("%s/%s: components sum %d != overhead %d",
				row.Benchmark, row.Scheme, got, want)
		}
		if b.App != row.NativeCycles {
			t.Errorf("%s/%s: app cycles %d != native %d",
				row.Benchmark, row.Scheme, b.App, row.NativeCycles)
		}
		if row.Slowdown <= 1 {
			t.Errorf("%s/%s: slowdown %.3f, want > 1", row.Benchmark, row.Scheme, row.Slowdown)
		}
	}
	for _, s := range rep.Summary {
		if s.Backend != BackendDynamic || !slices.Contains(benchSchemes, s.Scheme) {
			continue
		}
		if s.Benchmarks != 2 {
			t.Errorf("%s: benchmarks = %d, want 2", s.Scheme, s.Benchmarks)
		}
		if s.OverheadCycles == 0 {
			t.Errorf("%s: zero overhead implausible", s.Scheme)
			continue
		}
		sum := s.ShadowUpdateFrac + s.CheckFrac + s.ElidedFrac + s.DispatchFrac + s.OtherFrac
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: component fractions sum to %f, want 1", s.Scheme, sum)
		}
	}
	// The artifact round-trips as JSON.
	var back CellReport
	if err := json.Unmarshal([]byte(FormatJSON(rep)), &back); err != nil {
		t.Fatalf("BENCH_CELLS.json not parseable: %v", err)
	}
	if len(back.Cells) != len(rep.Cells) || len(back.Summary) != len(rep.Summary) {
		t.Error("JSON round-trip lost rows")
	}
}

// TestCellsSummaryDerivesFromCells decodes a written BENCH_CELLS.json and
// recomputes the summary from its cells alone: the result must equal the
// written summary bit for bit, and every cell must survive the round trip,
// its cost centers included.
func TestCellsSummaryDerivesFromCells(t *testing.T) {
	rep, err := Cells(1, "mcf", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (len(allSchemes) + 2*len(rewriteSchemes)); len(rep.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), want)
	}
	var back CellReport
	if err := json.Unmarshal([]byte(FormatJSON(rep)), &back); err != nil {
		t.Fatal(err)
	}
	if got := summarize(back.Cells); !reflect.DeepEqual(got, back.Summary) ||
		!reflect.DeepEqual(got, rep.Summary) {
		t.Fatalf("summary recomputed from decoded cells differs:\n got  %+v\n want %+v", got, back.Summary)
	}
	for i, c := range rep.Cells {
		want := *c
		want.Output, want.elapsed = nil, 0
		if !reflect.DeepEqual(*back.Cells[i], want) {
			t.Errorf("cell %d round trip:\n got  %+v\n want %+v", i, *back.Cells[i], want)
		}
	}
}

// TestTelemetryDisabledParity proves the <1% disabled-overhead guard at its
// strongest: with no profile attached the cycle and instruction counts are
// bit-identical to a profiled run — the telemetry layer observes the cycle
// model without ever feeding back into it.
func TestTelemetryDisabledParity(t *testing.T) {
	w := workloadSet(1, "mcf")[0]
	plain, err := Run(w, JASanHybrid)
	if err != nil {
		t.Fatal(err)
	}
	g, err := runGrid([]*spec.Workload{w}, []Scheme{JASanHybrid}, dynamicOnly, probeProfile)
	if err != nil {
		t.Fatal(err)
	}
	profiled, prof := g.at(0, 0, 0), g.at(0, 0, 0).Profile
	if plain.Cycles != profiled.Cycles || plain.Instrs != profiled.Instrs {
		t.Fatalf("profiling changed the measurement: cycles %d vs %d, instrs %d vs %d",
			plain.Cycles, profiled.Cycles, plain.Instrs, profiled.Instrs)
	}
	if prof.TotalCycles() != profiled.Cycles {
		t.Fatalf("profile total %d != machine cycles %d", prof.TotalCycles(), profiled.Cycles)
	}
}
