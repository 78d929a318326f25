package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/fuzz"
	"repro/internal/fuzz/gen"
	"repro/internal/jlint"
	"repro/internal/juliet"
	"repro/internal/obj"
)

// StaticRow compares static bug finding (jlint over the VSA fixpoint)
// against sanitized execution on one suite of good/bad program pairs.
// The static side is scored twice: the must tier alone (alarms the
// analysis proves on every feasible path — the zero-false-positive
// contract) and must+may together (adding the interval-overlap tier that
// trades alarms for coverage). The dynamic side is the suite's detecting
// sanitizer run to completion on every variant.
type StaticRow struct {
	Suite string `json:"suite"`
	Cases int    `json:"cases"`

	// Must tier only.
	MustTP int `json:"must_tp"`
	MustFN int `json:"must_fn"`
	MustFP int `json:"must_fp"`
	MustTN int `json:"must_tn"`

	// Must + may tiers.
	AnyTP int `json:"any_tp"`
	AnyFN int `json:"any_fn"`
	AnyFP int `json:"any_fp"`
	AnyTN int `json:"any_tn"`

	// Dynamic detection under the suite's sanitizer.
	DynDetector string `json:"dyn_detector"`
	DynTP       int    `json:"dyn_tp"`
	DynFN       int    `json:"dyn_fn"`
	DynFP       int    `json:"dyn_fp"`
	DynTN       int    `json:"dyn_tn"`

	// StaticMS is the wall-clock total of the jlint analyses (compilation
	// excluded — both sides consume the same modules). DynMS is the
	// wall-clock total of the sanitized executions including their
	// per-module rule analysis, i.e. the full cost of getting a dynamic
	// verdict. Timings vary run-to-run; the detection counts do not.
	StaticMS float64 `json:"static_ms"`
	DynMS    float64 `json:"dyn_ms"`
}

// StaticReport is the BENCH_STATIC.json artifact.
type StaticReport struct {
	Rows []StaticRow `json:"rows"`
}

// staticVerdict scores one compiled variant on both static tiers.
type staticVerdict struct {
	must bool // any must-alarm
	any  bool // any finding at all
	ms   float64
}

func lintVerdict(mod *obj.Module) (staticVerdict, error) {
	t0 := time.Now()
	rep, err := jlint.Analyze(mod)
	if err != nil {
		return staticVerdict{}, err
	}
	v := staticVerdict{ms: float64(time.Since(t0)) / float64(time.Millisecond)}
	v.any = len(rep.Findings) > 0
	v.must = len(rep.Musts()) > 0
	return v, nil
}

// scoreTier folds a (bad?, alarmed?) observation into the TP/FN/FP/TN
// quadrant selected by tier.
func (r *StaticRow) score(bad, mustAlarm, anyAlarm bool) {
	switch {
	case bad && mustAlarm:
		r.MustTP++
	case bad:
		r.MustFN++
	case mustAlarm:
		r.MustFP++
	default:
		r.MustTN++
	}
	switch {
	case bad && anyAlarm:
		r.AnyTP++
	case bad:
		r.AnyFN++
	case anyAlarm:
		r.AnyFP++
	default:
		r.AnyTN++
	}
}

// julietRow scores one Juliet case list statically (both variants of every
// case compiled at O2, exactly as the dynamic harness compiles them) and
// dynamically (juliet.Evaluate under det).
func julietRow(suite string, det juliet.Detector, cases []juliet.Case) (StaticRow, error) {
	row := StaticRow{Suite: suite, Cases: len(cases), DynDetector: string(det)}

	type verdicts struct {
		good, bad staticVerdict
		err       error
	}
	vs := make([]verdicts, len(cases))
	runJobs(len(cases), func(i int) {
		c := cases[i]
		for _, v := range []struct {
			src string
			out *staticVerdict
		}{{c.Good, &vs[i].good}, {c.Bad, &vs[i].bad}} {
			mod, err := cc.Compile(v.src, cc.Options{Module: "case", O2: true})
			if err != nil {
				vs[i].err = fmt.Errorf("%s: compile: %w", c.ID, err)
				return
			}
			*v.out, err = lintVerdict(mod)
			if err != nil {
				vs[i].err = fmt.Errorf("%s: analyze: %w", c.ID, err)
				return
			}
		}
	})
	for _, v := range vs {
		if v.err != nil {
			return row, v.err
		}
		row.score(false, v.good.must, v.good.any)
		row.score(true, v.bad.must, v.bad.any)
		row.StaticMS += v.good.ms + v.bad.ms
	}

	t0 := time.Now()
	tally, err := juliet.Evaluate(det, cases)
	if err != nil {
		return row, err
	}
	row.DynMS = float64(time.Since(t0)) / float64(time.Millisecond)
	row.DynTP, row.DynFN = tally.TP, tally.FN
	row.DynFP, row.DynTN = tally.FP, tally.TN
	return row, nil
}

// fuzzSeeds is how many planted/unplanted program pairs each bug class
// contributes at scale 1.
const fuzzSeeds = 6

// fuzzRow scores one planted bug class: seeds are drawn deterministically
// until `pairs` programs accept the plant; each planted program is scored
// statically (jlint over the same O2 module the sanitizer executes) and
// dynamically (fuzz.CheckSource's detecting tool for the class). The
// unplanted twin of every seed provides the negative column — its dynamic
// verdict is the full differential oracle, so a dynamic FP here means
// sanitizer noise on a safe program.
func fuzzRow(b gen.Bug, pairs int) (StaticRow, error) {
	row := StaticRow{Suite: "fuzz-" + b.String(), Cases: pairs}
	if b == gen.BugUninitRead {
		row.DynDetector = "jmsan"
	} else {
		row.DynDetector = "jasan"
	}

	type pair struct{ planted, clean *gen.Prog }
	var ps []pair
	for seed := int64(1); len(ps) < pairs; seed++ {
		if seed > int64(pairs)*100 {
			return row, fmt.Errorf("%s: could not plant %d programs", b, pairs)
		}
		r := rand.New(rand.NewSource(7 + int64(b)*1000 + seed))
		p := gen.New(r)
		q := p.Clone()
		if !q.Plant(r, b) {
			continue
		}
		ps = append(ps, pair{planted: q, clean: p})
	}

	type res struct {
		sv    staticVerdict
		dyn   bool // dynamic alarm
		dynMS float64
		err   error
	}
	rs := make([]res, len(ps)*2)
	runJobs(len(rs), func(i int) {
		p, bad := ps[i/2].clean, false
		if i%2 == 1 {
			p, bad = ps[i/2].planted, true
		}
		mod, err := cc.Compile(p.Render(), cc.Options{Module: "p", O2: true})
		if err != nil {
			rs[i].err = fmt.Errorf("compile: %w", err)
			return
		}
		if rs[i].sv, err = lintVerdict(mod); err != nil {
			rs[i].err = err
			return
		}
		t0 := time.Now()
		out := fuzz.CheckSource(p, 50_000_000)
		rs[i].dynMS = float64(time.Since(t0)) / float64(time.Millisecond)
		if bad {
			rs[i].dyn = out.PlantedCaught
		} else {
			// A safe program raising any oracle violation is dynamic
			// noise; budget exhaustion yields no verdict and scores as
			// silent (the conservative direction for the dynamic side).
			rs[i].dyn = len(out.Violations) > 0
		}
	})
	for i, r := range rs {
		if r.err != nil {
			return row, fmt.Errorf("%s seed pair %d: %w", b, i/2, r.err)
		}
		bad := i%2 == 1
		row.score(bad, r.sv.must, r.sv.any)
		if bad && r.dyn {
			row.DynTP++
		} else if bad {
			row.DynFN++
		} else if r.dyn {
			row.DynFP++
		} else {
			row.DynTN++
		}
		row.StaticMS += r.sv.ms
		row.DynMS += r.dynMS
	}
	return row, nil
}

// Static runs the static-vs-dynamic detection study: the CWE-457 suite
// split into its definite (stack/scalar) and heap halves, the CWE-122
// heap-overflow suite, and every planted fuzz bug class. scale multiplies
// the fuzz program count per class.
func Static(scale int) (*StaticReport, error) {
	if scale < 1 {
		scale = 1
	}
	rep := &StaticReport{}

	s457 := juliet.Suite457()
	var definite, heap457 []juliet.Case
	for _, c := range s457 {
		if c.Definite {
			definite = append(definite, c)
		} else {
			heap457 = append(heap457, c)
		}
	}
	for _, part := range []struct {
		suite string
		det   juliet.Detector
		cases []juliet.Case
	}{
		{"cwe457-definite", juliet.JMSan, definite},
		{"cwe457-heap", juliet.JMSan, heap457},
		{"cwe122", juliet.JASan, juliet.Suite()},
	} {
		row, err := julietRow(part.suite, part.det, part.cases)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}

	for b := gen.Bug(0); b < gen.NumBugs; b++ {
		row, err := fuzzRow(b, fuzzSeeds*scale)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}

	sort.SliceStable(rep.Rows, func(i, j int) bool {
		return rep.Rows[i].Suite < rep.Rows[j].Suite
	})
	return rep, nil
}

// FormatStatic renders the human-readable summary table.
func FormatStatic(rep *StaticReport) string {
	out := "Static bug finding vs sanitized execution (per suite, good/bad pairs)\n"
	out += fmt.Sprintf("%-22s %6s | %-17s | %-17s | %-17s | %9s %9s\n",
		"suite", "cases", "must TP/FN/FP", "must+may TP/FN/FP", "dynamic TP/FN/FP",
		"static", "dynamic")
	for _, r := range rep.Rows {
		fmtTier := func(tp, fn, fp int) string {
			return fmt.Sprintf("%d/%d/%d", tp, fn, fp)
		}
		out += fmt.Sprintf("%-22s %6d | %-17s | %-17s | %-17s | %8.0fms %8.0fms\n",
			r.Suite, r.Cases,
			fmtTier(r.MustTP, r.MustFN, r.MustFP),
			fmtTier(r.AnyTP, r.AnyFN, r.AnyFP),
			fmtTier(r.DynTP, r.DynFN, r.DynFP)+" ("+r.DynDetector+")",
			r.StaticMS, r.DynMS)
	}
	return out
}
