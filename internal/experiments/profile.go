package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Components is the per-rule overhead decomposition of one instrumented
// run, in model cycles. The fields sum exactly to Cycles−NativeCycles: the
// DBM charges every executed instruction (and every dispatch cost) to
// exactly one cost center, and the application's own instruction stream is
// identical under translation, so the attribution is an identity, not an
// estimate.
type Components struct {
	// ShadowUpdate is metadata maintenance: canary (un)poisoning, shadow
	// stack pushes, definedness-shadow stores.
	ShadowUpdate uint64 `json:"shadow_update_cycles"`
	// Check is verification: bounds/definedness/CFI checks.
	Check uint64 `json:"check_cycles"`
	// Elided is residual meta code at statically discharged sites.
	Elided uint64 `json:"elided_cycles"`
	// Dispatch is the modifier's own cost: block translation and
	// indirect-CTI lookups.
	Dispatch uint64 `json:"dispatch_cycles"`
	// Other is meta code no tool attributed to a rule kind.
	Other uint64 `json:"other_cycles"`
}

// Sum returns the total attributed overhead.
func (c Components) Sum() uint64 {
	return c.ShadowUpdate + c.Check + c.Elided + c.Dispatch + c.Other
}

// ProfileRow is one (benchmark, scheme) attributed measurement.
type ProfileRow struct {
	Benchmark    string     `json:"benchmark"`
	Scheme       Scheme     `json:"scheme"`
	Backend      Backend    `json:"backend"`
	NativeCycles uint64     `json:"native_cycles"`
	Cycles       uint64     `json:"cycles"`
	Slowdown     float64    `json:"slowdown"`
	AppCycles    uint64     `json:"app_cycles"`
	Components   Components `json:"components"`
}

// ProfileScheme is one scheme's suite-wide summary: the geomean slowdown of
// Fig. 8/9/11 decomposed into overhead-component fractions (each component's
// share of the total attributed overhead cycles across the suite).
type ProfileScheme struct {
	BenchRow
	// OverheadCycles is the summed Cycles−NativeCycles across the suite.
	OverheadCycles uint64 `json:"overhead_cycles"`
	// Fractions of OverheadCycles; they sum to 1 (up to rounding) when
	// OverheadCycles is non-zero.
	ShadowUpdateFrac float64 `json:"shadow_update_frac"`
	CheckFrac        float64 `json:"check_frac"`
	ElidedFrac       float64 `json:"elided_frac"`
	DispatchFrac     float64 `json:"dispatch_frac"`
	OtherFrac        float64 `json:"other_frac"`
}

// ProfileReport is the BENCH_PROFILE.json artifact.
type ProfileReport struct {
	Rows    []ProfileRow    `json:"rows"`
	Schemes []ProfileScheme `json:"schemes"`
}

// profileRow folds one profiled cell's telemetry profile into the
// attributed row, enforcing the attribution identity.
func profileRow(res *Result) (ProfileRow, error) {
	b := res.Profile.Breakdown()
	row := ProfileRow{
		Benchmark:    res.Benchmark,
		Scheme:       res.Scheme,
		Backend:      res.Backend,
		NativeCycles: res.NativeCycles,
		Cycles:       res.Cycles,
		Slowdown:     res.Slowdown,
		AppCycles:    b.App,
		Components: Components{
			ShadowUpdate: b.ShadowUpdate,
			Check:        b.Check,
			Elided:       b.Elided,
			Dispatch:     b.Dispatch,
			Other:        b.Other,
		},
	}
	// The attribution identity, enforced per cell rather than trusted:
	// every overhead cycle lands in exactly one component, and the
	// application center reproduces the native measurement exactly.
	if row.AppCycles != row.NativeCycles {
		return row, fmt.Errorf("%s/%s: app center %d cycles != native %d",
			res.Benchmark, res.Scheme, row.AppCycles, row.NativeCycles)
	}
	if got, want := row.Components.Sum(), row.Cycles-row.NativeCycles; got != want {
		return row, fmt.Errorf("%s/%s: components sum to %d, overhead is %d",
			res.Benchmark, res.Scheme, got, want)
	}
	return row, nil
}

// Profile runs every benchmarked scheme over the workload suite with cost
// attribution enabled and decomposes each scheme's slowdown into
// shadow-update/check/elided/dispatch components. Deterministic at any
// parallelism: fixed scheme order, name-sorted workloads.
func Profile(scale int, names ...string) (*ProfileReport, error) {
	g, err := runGrid(sortedSet(scale, names...), benchSchemes, dynamicOnly, probeProfile)
	if err != nil {
		return nil, err
	}
	rep := &ProfileReport{}
	for si := range benchSchemes {
		var total Components
		for _, res := range g.column(si, 0) {
			row, err := profileRow(res)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, row)
			total.ShadowUpdate += row.Components.ShadowUpdate
			total.Check += row.Components.Check
			total.Elided += row.Components.Elided
			total.Dispatch += row.Components.Dispatch
			total.Other += row.Components.Other
		}
		// Every row's components sum to its overhead, so the totals sum to
		// the scheme's overhead across the suite.
		overhead := total.Sum()
		frac := func(v uint64) float64 {
			if overhead == 0 {
				return 0
			}
			return float64(v) / float64(overhead)
		}
		rep.Schemes = append(rep.Schemes, ProfileScheme{
			BenchRow:         g.summary(si, 0),
			OverheadCycles:   overhead,
			ShadowUpdateFrac: frac(total.ShadowUpdate),
			CheckFrac:        frac(total.Check),
			ElidedFrac:       frac(total.Elided),
			DispatchFrac:     frac(total.Dispatch),
			OtherFrac:        frac(total.Other),
		})
	}
	// Rows grouped by scheme; regroup by (benchmark, scheme) for a stable
	// reading order matching the other figure artifacts.
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Benchmark != rep.Rows[j].Benchmark {
			return rep.Rows[i].Benchmark < rep.Rows[j].Benchmark
		}
		return string(rep.Rows[i].Scheme) < string(rep.Rows[j].Scheme)
	})
	return rep, nil
}

// FormatProfile renders the per-scheme decomposition as a human-readable
// table.
func FormatProfile(rep *ProfileReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %6s %8s %8s %8s %8s %8s\n",
		"scheme", "geomean", "n", "shadow", "check", "elided", "dispatch", "other")
	for _, s := range rep.Schemes {
		fmt.Fprintf(&b, "%-18s %8.2fx %6d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			s.Scheme, s.GeomeanSlowdown, s.Benchmarks,
			100*s.ShadowUpdateFrac, 100*s.CheckFrac, 100*s.ElidedFrac,
			100*s.DispatchFrac, 100*s.OtherFrac)
	}
	return strings.TrimRight(b.String(), "\n")
}
