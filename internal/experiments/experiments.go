// Package experiments is the evaluation harness: it runs every scheme on
// every workload and regenerates each table and figure of the paper's
// evaluation section (Figs. 7–14 plus the §6.2.2 soundness study). See
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"time"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Scheme names one configuration of one tool.
type Scheme string

// The evaluated schemes.
const (
	Native          Scheme = "native"
	NullClient      Scheme = "null-client"
	JASanHybrid     Scheme = "jasan-hybrid"
	JASanHybridBase Scheme = "jasan-hybrid-base" // no liveness optimisation
	JASanSCEV       Scheme = "jasan-scev"        // hybrid + SCEV check hoisting (ablation)
	JASanElide      Scheme = "jasan-elide"       // hybrid + VSA proof-carrying check elision
	JASanDyn        Scheme = "jasan-dyn"
	Valgrind        Scheme = "valgrind"
	Retrowrite      Scheme = "retrowrite"
	JCFIHybrid      Scheme = "jcfi-hybrid"
	JCFIForward     Scheme = "jcfi-forward" // forward-edge CFI only
	JCFINarrow      Scheme = "jcfi-narrow"  // hybrid + VSA indirect-target narrowing
	JCFIDyn         Scheme = "jcfi-dyn"
	Lockdown        Scheme = "lockdown"
	LockdownWeak    Scheme = "lockdown-weak"
	BinCFI          Scheme = "bincfi"
	JMSanHybrid     Scheme = "jmsan-hybrid"
	JMSanElide      Scheme = "jmsan-elide" // hybrid + VSA def-init check elision
	JMSanDyn        Scheme = "jmsan-dyn"
	ValgrindDef     Scheme = "valgrind-def" // memcheck model with validity bits
	JTSanHybrid     Scheme = "jtsan-hybrid"
	JTSanElide      Scheme = "jtsan-elide" // hybrid + VSA no-escape check elision
	JTSanDyn        Scheme = "jtsan-dyn"
	ValgrindTemp    Scheme = "valgrind-temporal" // memcheck model with generation tags
	// Comprehensive is the combined jasan+jmsan+jtsan+jcfi configuration:
	// all four Janitizer tools composed over one shared translation of
	// every block (core.MultiTool).
	Comprehensive Scheme = "comprehensive"
)

// Backend identifies the execution backend a measurement ran under: the
// dynamic binary modifier (the default), the static AOT rewriter, or the
// hybrid that runs statically rewritten code and fails over to the DBM.
type Backend string

// The execution backends of the bake-off.
const (
	BackendDynamic Backend = "dynamic"
	BackendStatic  Backend = "static"
	BackendHybrid  Backend = "hybrid"
)

// Result is one (benchmark, scheme, backend) measurement: one cell of the
// evaluation matrix and one record of BENCH_CELLS.json.
type Result struct {
	Benchmark string `json:"benchmark"`
	Scheme    Scheme `json:"scheme"`
	// Backend is the execution backend the measurement ran under.
	Backend Backend `json:"backend"`
	// Failed marks configurations the scheme cannot run (the x marks of
	// the figures); Reason explains why.
	Failed bool   `json:"failed,omitempty"`
	Reason string `json:"reason,omitempty"`

	Cycles       uint64  `json:"cycles"`
	NativeCycles uint64  `json:"native_cycles"`
	Slowdown     float64 `json:"slowdown"`
	ExitStatus   int64   `json:"exit_status"`
	// Instrs is the retired instruction count of the instrumented run —
	// the elision study's metric (checks removed shrink the dynamic
	// instruction stream even when cycle weights hide it).
	Instrs uint64 `json:"instrs"`

	Violations int                `json:"violations"`
	Coverage   core.CoverageStats `json:"coverage"`
	// Output is the program's captured stdout — the backend parity tests
	// demand it byte-identical across dynamic, static and hybrid runs.
	// Only its SHA-256 is serialised.
	Output       []byte `json:"-"`
	OutputSHA256 string `json:"output_sha256,omitempty"`
	// ElidedChecks counts MEM_ACCESS_SAFE rules with a VSA-backed
	// provenance (SafeFrame/SafeGlobal/SafeDedup/SafeDefInit) across the
	// program's static rule files; NarrowedBranches counts CFI_JUMP_NARROW
	// rules.
	ElidedChecks     int `json:"elided_checks"`
	NarrowedBranches int `json:"narrowed_branches"`
	// DAIR is the dynamic average indirect-target reduction (CFI schemes).
	DAIR float64 `json:"dair"`
	// Profile is the run's cost attribution when the grid was profiled
	// (dynamic backend only).
	Profile *telemetry.Profile `json:"profile,omitempty"`

	// elapsed is the host wall time of the run step, observability
	// included.
	elapsed time.Duration
}

// maxInstrs bounds each run.
const maxInstrs = 400_000_000

// service is the evaluation's shared analysis service: one content-
// addressed rule cache for the whole process, so a module analyzed for one
// (workload, scheme) cell — above all libj, which every workload links — is
// reused by every later cell with the same tool configuration, within a
// figure and across figures of a `jexp all` run.
var service = anserve.New(anserve.Config{})

// AnalysisStats exposes the shared service's cache/scheduler counters
// (printed by jexp -stats).
func AnalysisStats() anserve.Stats { return service.Stats() }

// Run executes one (workload, scheme) cell on the dynamic backend. A nil
// error with Result.Failed set means the scheme cannot handle the
// benchmark — the figures' x marks; hard errors are real harness problems.
func Run(w *spec.Workload, scheme Scheme) (*Result, error) {
	g, err := runGrid([]*spec.Workload{w}, []Scheme{scheme}, dynamicOnly, probeNone)
	if err != nil {
		return nil, err
	}
	return g.at(0, 0, 0), nil
}

// obsSink wires the full observability stack into a run: a span per
// execution (exported through tr), post-run structured-diagnostics
// collection into dlog, and a trace-exemplared duration observation into
// hist. All of it lives outside the VM's cycle model, so an observed run
// must measure identical Cycles/Instrs to a plain one — the invariant the
// Obs experiment gates.
type obsSink struct {
	tr   *telemetry.Tracer
	dlog *diag.Log
	hist *telemetry.Histogram
}

// countProofRules tallies the VSA-backed decisions across a program's
// static rule files: MEM_ACCESS_SAFE rules whose provenance word marks a
// frame/global/dedup proof, and CFI_JUMP_NARROW rules.
func countProofRules(files map[string]*rules.File) (elided, narrowed int) {
	for _, f := range files {
		for _, r := range f.Rules {
			switch r.ID {
			case rules.MemAccessSafe:
				switch r.Data[1] {
				case rules.SafeFrame, rules.SafeGlobal, rules.SafeDedup,
					rules.SafeDefInit, rules.SafeNoEscape:
					elided++
				}
			case rules.CFIJumpNarrow:
				narrowed++
			}
		}
	}
	return elided, narrowed
}
