package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/jcfi"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obj"
	"repro/internal/registry"
	"repro/internal/rewrite"
	"repro/internal/rules"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Parallel sets how many grid cells run concurrently; the zero value (or
// any value <= 0) selects runtime.GOMAXPROCS(0). Study output is identical
// at any setting: every cell is a function of its coordinates alone, and
// studies read the grid in serial order. jexp routes its -parallel flag
// here.
var Parallel int

func parallelism() int {
	if Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return Parallel
}

// runJobs executes n jobs through a worker pool of parallelism() workers.
// Each worker pulls the next job index, so long cells (cactusADM under
// valgrind) do not stall the queue behind them.
func runJobs(n int, job func(int)) {
	p := parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				job(int(i))
			}
		}()
	}
	wg.Wait()
}

// workloadSet returns the full suite, or a subset by name, in suite order,
// with the given scale applied.
func workloadSet(scale int, names ...string) []*spec.Workload {
	var out []*spec.Workload
	for _, w := range spec.All() {
		if len(names) > 0 && !slices.Contains(names, w.Name) {
			continue
		}
		cp := *w
		cp.Scale = scale
		out = append(out, &cp)
	}
	return out
}

// sortedSet is workloadSet in name order: the workload order of
// BENCH_CELLS.json and of every row study.
func sortedSet(scale int, names ...string) []*spec.Workload {
	ws := workloadSet(scale, names...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	return ws
}

// dynamicOnly is the backend axis of every study that runs on the DBM.
var dynamicOnly = []Backend{BackendDynamic}

// A probe is what a grid attaches to its runs beyond the cycle model's own
// counters. No probe changes a measured cycle.
type probe int

const (
	probeNone probe = iota
	// probeProfile attaches a cost-attribution telemetry.Profile to every
	// dynamic-backend cell.
	probeProfile
	// probeTrace gives every scheme an obsSink: a span per run, structured
	// diagnostics and an exemplared run-time histogram.
	probeTrace
)

// A grid is the evaluation matrix: one Result per (workload, scheme,
// backend) cell. Studies select its axes and read its cells.
type grid struct {
	workloads []*spec.Workload
	schemes   []Scheme
	backends  []Backend
	cells     []*Result
	// sinks holds each scheme's observability sink under probeTrace.
	sinks []*obsSink
}

// at returns the cell of workload wi, scheme si and backend bi.
func (g *grid) at(wi, si, bi int) *Result {
	return g.cells[(wi*len(g.schemes)+si)*len(g.backends)+bi]
}

// cell returns workload wi's cell under scheme s on the first backend.
func (g *grid) cell(wi int, s Scheme) *Result {
	for si, gs := range g.schemes {
		if gs == s {
			return g.at(wi, si, 0)
		}
	}
	panic(fmt.Sprintf("experiments: scheme %s not in grid", s))
}

// column returns one (scheme, backend) column in workload order, without
// the cells the scheme could not run.
func (g *grid) column(si, bi int) []*Result {
	var out []*Result
	for wi := range g.workloads {
		if r := g.at(wi, si, bi); !r.Failed {
			out = append(out, r)
		}
	}
	return out
}

// geomean is the geometric mean of metric over xs.
func geomean[T any](xs []T, metric func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = metric(x)
	}
	return metrics.Geomean(vs)
}

// A program is one workload built at one PIC setting, with its native run:
// what every cell of that workload shares. Cells only read it.
type program struct {
	main   *obj.Module
	reg    loader.Registry
	native *Result
}

// buildProgram compiles the workload and measures its uninstrumented
// baseline.
func buildProgram(w *spec.Workload, pic bool) (*program, error) {
	main, reg, err := w.Build(pic)
	if err != nil {
		return nil, err
	}
	out := &bytes.Buffer{}
	s, err := core.Load(main, reg, nil, nil, core.Options{MaxInstrs: maxInstrs, Out: out})
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: native: %w", w.Name, err)
	}
	m := s.M
	return &program{main: main, reg: reg, native: &Result{
		Benchmark: w.Name, Scheme: Native, Backend: BackendDynamic,
		Cycles: m.Cycles, NativeCycles: m.Cycles, Slowdown: 1,
		ExitStatus: m.ExitStatus, Instrs: m.Instrs,
		Output: out.Bytes(), OutputSHA256: digest(out.Bytes())}}, nil
}

// runGrid runs every (workload, scheme, backend) cell. Each workload is
// built and run natively once per PIC setting its schemes need (Retrowrite
// alone consumes PIC), and every cell shares that build and native run.
// Cells run through the worker pool; the first error in serial cell order
// is returned.
func runGrid(workloads []*spec.Workload, schemes []Scheme, backends []Backend,
	pr probe) (*grid, error) {

	g := &grid{workloads: workloads, schemes: schemes, backends: backends,
		cells: make([]*Result, len(workloads)*len(schemes)*len(backends))}
	if pr == probeTrace {
		for range schemes {
			g.sinks = append(g.sinks, &obsSink{
				tr:   telemetry.NewTracer(2 * len(workloads) * len(backends)),
				dlog: diag.NewLog(),
				hist: telemetry.NewRegistry().Histogram("janitizer_exp_run_duration_seconds",
					"Observed experiment run wall time.",
					[]float64{0.01, 0.05, 0.25, 1, 5, 25}),
			})
		}
	}

	need := make([]bool, 2*len(workloads))
	for wi := range workloads {
		for _, s := range schemes {
			need[progIndex(wi, s)] = true
		}
	}
	progs := make([]*program, len(need))
	progErrs := make([]error, len(need))
	runJobs(len(need), func(i int) {
		if need[i] {
			progs[i], progErrs[i] = buildProgram(workloads[i/2], i%2 == 1)
		}
	})

	errs := make([]error, len(g.cells))
	runJobs(len(g.cells), func(i int) {
		wi := i / (len(schemes) * len(backends))
		si := i / len(backends) % len(schemes)
		s, b := schemes[si], backends[i%len(backends)]
		pi := progIndex(wi, s)
		if errs[i] = progErrs[pi]; errs[i] != nil {
			return
		}
		var prof *telemetry.Profile
		if pr == probeProfile && b == BackendDynamic && s != Native {
			prof = &telemetry.Profile{}
		}
		var obs *obsSink
		if g.sinks != nil {
			obs = g.sinks[si]
		}
		g.cells[i], errs[i] = runCell(workloads[wi], progs[pi], s, b, prof, obs)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// digest is the SHA-256 of a run's output in hex, as cycles.golden prints it.
func digest(out []byte) string { return fmt.Sprintf("%x", sha256.Sum256(out)) }

// progIndex locates the build a cell runs against: a workload's PIC build
// at 2*wi+1 (Retrowrite consumes PIC), every other scheme's at 2*wi.
func progIndex(wi int, s Scheme) int {
	if s == Retrowrite {
		return 2*wi + 1
	}
	return 2 * wi
}

// runCell runs one cell against its workload's shared program. A nil error
// with Result.Failed set means the scheme or backend cannot handle the
// workload (the figures' x marks); hard errors are real harness problems,
// including any divergence from the native run's exit status or output.
// The execution step is the only part that differs between backends.
func runCell(w *spec.Workload, p *program, scheme Scheme, backend Backend,
	prof *telemetry.Profile, obs *obsSink) (*Result, error) {

	if scheme == Native {
		return p.native, nil
	}
	name := fmt.Sprintf("%s/%s/%s", w.Name, scheme, backend)
	res := &Result{Benchmark: w.Name, Scheme: scheme, Backend: backend,
		NativeCycles: p.native.Cycles}
	fail := func(reason string) (*Result, error) {
		res.Failed = true
		res.Reason = reason
		return res, nil
	}

	// Scheme applicability gates.
	switch scheme {
	case Retrowrite:
		if !w.Retrowritable() {
			return fail(fmt.Sprintf("retrowrite does not support %s input", w.Lang))
		}
	case Lockdown, LockdownWeak:
		if w.LockdownBroken {
			return fail("lockdown prototype fails on this benchmark (§6.2.1)")
		}
	case BinCFI:
		// Rewriting-feasibility check over every static module.
		bin := baseline.NewBinCFI()
		mods, err := loader.LddClosure(p.main, p.reg)
		if err != nil {
			return nil, err
		}
		for _, mod := range mods {
			g, err := cfg.Build(mod)
			if err != nil {
				return nil, err
			}
			if err := bin.CheckInput(mod, g); err != nil {
				return fail(err.Error())
			}
		}
	}

	// Build the tool and decide whether a static stage runs.
	entry, err := registry.Lookup(string(scheme))
	if err != nil {
		return nil, err
	}
	tool := entry.New()
	if rw, ok := tool.(*baseline.RetrowriteTool); ok {
		if err := rw.CheckInput(p.main); err != nil {
			return fail(err.Error())
		}
	}
	if backend != BackendDynamic && !entry.Static {
		return fail(registry.ErrNoStatic.Error())
	}
	files := map[string]*rules.File{}
	if entry.Static {
		files, err = service.AnalyzeProgram(p.main, p.reg, tool)
		if err != nil {
			return nil, fmt.Errorf("%s: static analysis: %w", name, err)
		}
	}

	started := time.Now()
	var sp *telemetry.Span
	if obs != nil {
		sp = obs.tr.Start("exp.run",
			telemetry.String("benchmark", w.Name),
			telemetry.String("scheme", string(scheme)))
	}
	rt, out, err := execute(p, entry, backend, tool, files, prof)
	if err != nil {
		if sp != nil {
			sp.SetError(err.Error())
			sp.End()
		}
		return nil, fmt.Errorf("%s: run: %w", name, err)
	}
	m := rt.M
	if obs != nil {
		sp.AddEvent("run-complete",
			telemetry.Int("instrs", int64(m.Instrs)),
			telemetry.Int("cycles", int64(m.Cycles)))
		sp.End()
		diag.Collect(obs.dlog, tool, diag.NewProcessSymbolizer(rt.Proc), sp.Context())
		obs.hist.ObserveExemplar(time.Since(started).Seconds(), sp.TraceID())
	}
	res.elapsed = time.Since(started)
	if m.ExitStatus != p.native.ExitStatus {
		return nil, fmt.Errorf("%s: semantics broken: exit %d, native %d",
			name, m.ExitStatus, p.native.ExitStatus)
	}
	if !bytes.Equal(out.Bytes(), p.native.Output) {
		return nil, fmt.Errorf("%s: semantics broken: output diverges from native", name)
	}

	res.Cycles = m.Cycles
	res.Slowdown = metrics.Slowdown(m.Cycles, p.native.Cycles)
	res.ExitStatus = m.ExitStatus
	res.Instrs = m.Instrs
	res.Output = out.Bytes()
	res.OutputSHA256 = digest(res.Output)
	res.Coverage = rt.Coverage
	res.Profile = prof
	res.ElidedChecks, res.NarrowedBranches = countProofRules(files)
	res.Violations = core.Violations(tool)
	switch tt := tool.(type) {
	case *jcfi.Tool:
		res.DAIR = tt.DynamicAIR()
	case *baseline.LockdownTool:
		res.DAIR = tt.DynamicAIR()
	case *baseline.BinCFITool:
		res.DAIR = tt.AIR()
	}
	return res, nil
}

// execute runs the instrumented program on the cell's backend: under the
// DBM runtime, or statically rewritten from the scheme's plans (captured
// through the shared service once, for both rewriting backends) and run
// natively (static) or under the failing-over dispatcher (hybrid).
func execute(p *program, entry *registry.Entry, backend Backend, tool core.Tool,
	files map[string]*rules.File, prof *telemetry.Profile) (*core.Runtime, *bytes.Buffer, error) {

	out := &bytes.Buffer{}
	opts := core.Options{MaxInstrs: maxInstrs, Out: out}
	if backend == BackendDynamic {
		s, err := core.Load(p.main, p.reg, tool, files, opts)
		if err != nil {
			return nil, nil, err
		}
		s.RT.DBM.Prof = prof
		return s.RT, out, s.Run()
	}
	plans, err := service.RewritePlans(p.main, p.reg, files, entry.New)
	if err != nil {
		return nil, nil, fmt.Errorf("plan capture: %w", err)
	}
	run := rewrite.RunHybrid
	if backend == BackendStatic {
		run = rewrite.RunStatic
	}
	rr, err := run(p.main, p.reg, tool, files, plans, opts)
	if err != nil {
		return nil, nil, err
	}
	return rr.Runtime, out, nil
}
