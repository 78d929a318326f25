package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/spec"
)

// TestRewriteBackendParityAllWorkloads is the bake-off's correctness
// acceptance: on every workload of the suite, the static and hybrid
// backends must reproduce the dynamic backend's app-observable behaviour
// (exit status and output bytes) and its sanitizer verdicts exactly. It
// runs the comprehensive jasan+jmsan+jtsan+jcfi configuration so all four
// tools' plans are exercised at once.
func TestRewriteBackendParityAllWorkloads(t *testing.T) {
	workloads := spec.All()
	if testing.Short() {
		workloads = workloadSet(1, quickSet...)
	}
	if err := CheckParity(Comprehensive, workloads...); err != nil {
		t.Fatal(err)
	}
}

// TestBenchRewriteOrdering is the bake-off's performance acceptance: on
// every scheme the backends cover, AOT-rewritten code must beat the dynamic
// modifier (static runs everything natively) and the hybrid must never cost
// more than staying fully dynamic.
func TestBenchRewriteOrdering(t *testing.T) {
	rep, err := Cells(1, quickSet...)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Summary{}
	for _, r := range rep.Summary {
		if !slices.Contains(rewriteSchemes, r.Scheme) {
			continue
		}
		byKey[fmt.Sprintf("%s/%s", r.Scheme, r.Backend)] = r
		t.Logf("%-14s %-8s geomean %.3f over %d benchmarks",
			r.Scheme, r.Backend, r.GeomeanSlowdown, r.Benchmarks)
	}
	for _, s := range rewriteSchemes {
		dyn := byKey[fmt.Sprintf("%s/%s", s, BackendDynamic)]
		st := byKey[fmt.Sprintf("%s/%s", s, BackendStatic)]
		hy := byKey[fmt.Sprintf("%s/%s", s, BackendHybrid)]
		if dyn.Benchmarks == 0 || st.Benchmarks == 0 || hy.Benchmarks == 0 {
			t.Errorf("%s: empty bake-off cell (dyn %d, static %d, hybrid %d benchmarks)",
				s, dyn.Benchmarks, st.Benchmarks, hy.Benchmarks)
			continue
		}
		if st.GeomeanSlowdown >= dyn.GeomeanSlowdown {
			t.Errorf("%s: static geomean %.3f does not beat dynamic %.3f",
				s, st.GeomeanSlowdown, dyn.GeomeanSlowdown)
		}
		if hy.GeomeanSlowdown > dyn.GeomeanSlowdown {
			t.Errorf("%s: hybrid geomean %.3f exceeds dynamic %.3f",
				s, hy.GeomeanSlowdown, dyn.GeomeanSlowdown)
		}
	}
}
