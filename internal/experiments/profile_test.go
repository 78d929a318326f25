package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

// TestProfileAttributionSumsExactly is the acceptance criterion on a CI-fast
// subset: per (benchmark, scheme) cell the attributed components sum
// exactly to the instrumented-minus-native cycle delta, and the app cost
// center reproduces the native measurement. Profile itself enforces both
// identities per cell (profileRow errors on violation), so this test is a
// run of the harness plus structural checks on the artifact.
func TestProfileAttributionSumsExactly(t *testing.T) {
	rep, err := Profile(1, "mcf", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(benchSchemes); len(rep.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), want)
	}
	for _, row := range rep.Rows {
		if got, want := row.Components.Sum(), row.Cycles-row.NativeCycles; got != want {
			t.Errorf("%s/%s: components sum %d != overhead %d",
				row.Benchmark, row.Scheme, got, want)
		}
		if row.AppCycles != row.NativeCycles {
			t.Errorf("%s/%s: app cycles %d != native %d",
				row.Benchmark, row.Scheme, row.AppCycles, row.NativeCycles)
		}
		if row.Slowdown <= 1 {
			t.Errorf("%s/%s: slowdown %.3f, want > 1", row.Benchmark, row.Scheme, row.Slowdown)
		}
	}
	for _, s := range rep.Schemes {
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
	var back ProfileReport
	if err := json.Unmarshal([]byte(FormatJSON(rep)), &back); err != nil {
		t.Fatalf("BENCH_PROFILE.json not parseable: %v", err)
	}
	if len(back.Rows) != len(rep.Rows) || len(back.Schemes) != len(rep.Schemes) {
		t.Error("JSON round-trip lost rows")
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
