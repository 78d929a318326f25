package juliet

import (
	"fmt"
	"sync"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/registry"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// Detector selects the evaluated sanitizer.
type Detector string

// Detectors evaluated in Fig. 10 (CWE-122) and the CWE-457 extension.
const (
	JASan      Detector = "jasan"
	Valgrind   Detector = "valgrind"
	JMSan      Detector = "jmsan"
	JMSanElide Detector = "jmsan-elide" // jmsan + VSA def-init check elision
	JTSan      Detector = "jtsan"
	JTSanElide Detector = "jtsan-elide" // jtsan + VSA no-escape check elision
)

// Tally is the Fig. 10 confusion matrix: good variants contribute FP/TN,
// bad variants TP/FN. A bad variant counts as detected (TP) only when the
// detector reports at least the ground-truth violation count; fewer-than-
// actual reports are false negatives, as in the paper.
type Tally struct {
	TP, FN, TN, FP int
	// FNByKind breaks false negatives down by overflow shape.
	FNByKind map[Kind]int
}

func (t *Tally) String() string {
	return fmt.Sprintf("TP=%d FN=%d TN=%d FP=%d", t.TP, t.FN, t.TN, t.FP)
}

// libjRules caches the static-analysis result for libj per detector (a
// shared library is analyzed once and its rule file reused — §3.3.1).
var (
	libjMu    sync.Mutex
	libjFiles = map[Detector]*rules.File{}
)

func libjRules(det Detector, mkTool func() core.Tool) (*rules.File, error) {
	libjMu.Lock()
	defer libjMu.Unlock()
	if f, ok := libjFiles[det]; ok {
		return f, nil
	}
	lj, err := libj.Module()
	if err != nil {
		return nil, err
	}
	f, err := core.AnalyzeModule(lj, mkTool())
	if err != nil {
		return nil, err
	}
	libjFiles[det] = f
	return f, nil
}

// runCase executes one variant under the detector and returns the number of
// reported violations.
func runCase(det Detector, src string) (uint64, error) {
	n, _, err := RunCaseDiag(det, src)
	return n, err
}

// detectors names each detector's registry configuration. The labels
// predate the registry: JASan is the SCEV-hoisting configuration here.
var detectors = map[Detector]string{
	JASan:      "jasan-scev",
	JMSan:      "jmsan-hybrid",
	JMSanElide: "jmsan-elide",
	JTSan:      "jtsan-hybrid",
	JTSanElide: "jtsan-elide",
	Valgrind:   "valgrind",
}

// RunCaseDiag executes one variant under the detector and returns the raw
// violation count plus the structured diagnostics the run produced —
// deduplicated, CWE-classified and symbolized against the loaded process
// image — so suite oracles can assert on fields (kind, CWE, rule,
// function) instead of counts alone. The Valgrind baseline reports no
// structured records (it is not a janitizer trap family).
func RunCaseDiag(det Detector, src string) (uint64, []diag.Violation, error) {
	entry, err := registry.Lookup(detectors[det])
	if err != nil {
		return 0, nil, fmt.Errorf("juliet: unknown detector %q", det)
	}
	main, err := cc.Compile(src, cc.Options{Module: "case", O2: true})
	if err != nil {
		return 0, nil, fmt.Errorf("juliet: compile: %w", err)
	}
	lj, err := libj.Module()
	if err != nil {
		return 0, nil, err
	}
	reg := loader.Registry{libj.Name: lj}

	tool := entry.New()
	files := map[string]*rules.File{}
	if entry.Static {
		ljf, err := libjRules(det, entry.New)
		if err != nil {
			return 0, nil, err
		}
		mf, err := core.AnalyzeModule(main, tool)
		if err != nil {
			return 0, nil, err
		}
		files[libj.Name] = ljf
		files[main.Name] = mf
	}

	s, err := core.Load(main, reg, tool, files, core.Options{MaxInstrs: 5_000_000})
	if err != nil {
		return 0, nil, err
	}
	// Bad variants may crash after the detector reported (the canary-smash
	// cases halt in the application's own check); reports gathered so far
	// still count, and the structured records are collected regardless, so
	// the run error is deliberately not propagated.
	_ = s.Run()
	dlog := diag.NewLog()
	diag.Collect(dlog, tool, diag.NewProcessSymbolizer(s.Proc), telemetry.SpanContext{})
	return uint64(core.Violations(tool)), dlog.Entries(), nil
}

// Evaluate runs the detector over the suite and tallies Fig. 10's metrics.
func Evaluate(det Detector, cases []Case) (*Tally, error) {
	t := &Tally{FNByKind: map[Kind]int{}}
	for _, c := range cases {
		good, err := runCase(det, c.Good)
		if err != nil {
			return nil, fmt.Errorf("%s/%s good: %w", det, c.ID, err)
		}
		if good > 0 {
			t.FP++
		} else {
			t.TN++
		}
		bad, err := runCase(det, c.Bad)
		if err != nil {
			return nil, fmt.Errorf("%s/%s bad: %w", det, c.ID, err)
		}
		if bad >= uint64(c.ActualViolations) {
			t.TP++
		} else {
			t.FN++
			t.FNByKind[c.Kind]++
		}
	}
	return t, nil
}
