package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/anserve"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/jlint"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/spec"
	"repro/internal/vsa"
)

// The analysis tools of the analyze workload. jasan-hybrid uses the
// analysis layer without VSA; the elide variants, jcfi-narrow and jlint run
// the VSA fixpoint.
var analyzeTools = []string{"jasan-hybrid", "jasan-elide", "jmsan-elide", "jtsan-elide", "jcfi-narrow", "jlint"}

// analyzeOp is one build-and-analyze operation.
type analyzeOp struct {
	Prog  string `json:"prog"`
	Scale int    `json:"scale"`
	Tool  string `json:"tool"`
	// Repeat is the index of the earlier operation this one repeats (a
	// cache hit), or -1.
	Repeat int `json:"repeat"`
}

// analyzeOps draws n operations: distinct (program, scale) pairs, so every
// first analysis misses the cache, and one in four repeating an earlier
// operation.
func analyzeOps(seed int64, n int) []analyzeOp {
	r := rand.New(rand.NewSource(seed))
	names := spec.Names()
	used := map[analyzeOp]bool{}
	var firsts []int
	ops := make([]analyzeOp, n)
	for i := range ops {
		if len(firsts) > 0 && r.Intn(4) == 0 {
			j := firsts[r.Intn(len(firsts))]
			ops[i] = ops[j]
			ops[i].Repeat = j
			continue
		}
		for {
			op := analyzeOp{Prog: names[r.Intn(len(names))], Scale: 1 + r.Intn(1000), Repeat: -1}
			if !used[op] {
				used[op] = true
				op.Tool = analyzeTools[r.Intn(len(analyzeTools))]
				ops[i] = op
				break
			}
		}
		firsts = append(firsts, i)
	}
	return ops
}

// analyzeOut is what one operation returned.
type analyzeOut struct {
	main [sha256.Size]byte // the main module's artifact
	all  [sha256.Size]byte // every module's artifact, by name
}

// analyzeWL compiles programs and analyzes them through a fresh analysis
// service per round. Nothing executes.
type analyzeWL struct {
	seed int64
	list []analyzeOp
	svc  *anserve.Service
	// workers bounds the service's analysis pool.
	workers int
	ref     []*analyzeOut // first round's outputs
	cur     []*analyzeOut
	hits    float64
	subs    float64
}

func setupAnalyze(c config) (workload, error) {
	n := 4000
	if c.tiny {
		n = 12
	}
	ops := analyzeOps(c.seed, n)
	return &analyzeWL{seed: c.seed, list: ops, workers: c.workers, ref: make([]*analyzeOut, n)}, nil
}

func (a *analyzeWL) ops() int { return len(a.list) }

func (a *analyzeWL) begin(*round) error {
	a.svc = anserve.New(anserve.Config{Workers: a.workers})
	a.cur = make([]*analyzeOut, len(a.list))
	return nil
}

// build compiles an operation's program.
func (op analyzeOp) build() (*obj.Module, loader.Registry, int, error) {
	w := *spec.ByName(op.Prog)
	w.Scale = op.Scale
	main, reg, err := w.Build(false)
	return main, reg, 1 + len(w.ExtraC) + len(w.ExtraAsm), err
}

func (a *analyzeWL) do(rc *round, i int) error {
	op := a.list[i]
	ot := rc.trace("analyze.op", i)
	defer ot.end()
	fail := func(stage string, err error) error {
		return fmt.Errorf("%s@%d/%s: %s: %w", op.Prog, op.Scale, op.Tool, stage, err)
	}
	sp := ot.child("cc.build")
	main, reg, nmods, err := op.build()
	sp.end()
	if err != nil {
		return fail("build", err)
	}
	rc.add("cc.modules", float64(nmods))
	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return fail("closure", err)
	}

	arts := map[string][]byte{}
	sp = ot.child("anserve.analyze_program")
	if op.Tool == "jlint" {
		for _, m := range mods {
			b, err := a.svc.AnalyzeModuleBytes(m, jlint.New())
			if err != nil {
				sp.end()
				return fail("analyze "+m.Name, err)
			}
			arts[m.Name] = b
		}
	} else {
		files, err := a.svc.AnalyzeProgram(main, reg, newTool(op.Tool))
		if err != nil {
			sp.end()
			return fail("analyze", err)
		}
		for name, f := range files {
			arts[name] = f.Marshal()
		}
	}
	sp.end()

	if op.Tool == "jlint" {
		// Every spec program is safe, so the must tier has to stay silent.
		for name, b := range arts {
			rep, err := jlint.UnmarshalReport(b)
			if err != nil {
				return fail("report "+name, err)
			}
			if n := len(rep.Musts()); n > 0 {
				return fail("report "+name, fmt.Errorf("%d must-alarms on a safe program", n))
			}
		}
	}
	a.cur[i] = &analyzeOut{main: sha256.Sum256(arts[main.Name]), all: digest(arts)}

	if rc.traced && op.Repeat < 0 {
		if err := a.traceLayers(ot, mods, op.Tool); err != nil {
			return fail("traced layers", err)
		}
	}
	return nil
}

// traceLayers calls the analysis layers one by one on each module the
// operation's analysis missed, so the traced run can time them apart.
func (a *analyzeWL) traceLayers(ot *opTrace, mods []*obj.Module, tool string) error {
	for _, m := range mods {
		if m.Name == libj.Name {
			continue // analyzed once per tool, then served from the cache
		}
		sp := ot.child("cfg.build")
		g, err := cfg.Build(m)
		sp.end()
		if err != nil {
			return err
		}
		sp = ot.child("analysis.liveness")
		analysis.ComputeLiveness(g, true)
		sp.end()
		canaries := analysis.FindCanaries(g)
		sp = ot.child("vsa.analyze")
		vsa.Analyze(m, g, canaries)
		sp.end()
		if tool == "jlint" {
			sp = ot.child("jlint.analyze")
			_, err = jlint.Analyze(m)
		} else {
			sp = ot.child("core.analyze_module")
			_, err = core.AnalyzeModule(m, newTool(tool))
		}
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// digest hashes artifacts in module-name order.
func digest(arts map[string][]byte) [sha256.Size]byte {
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", n, len(arts[n]))
		h.Write(arts[n])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (a *analyzeWL) end(rc *round) error {
	st := a.svc.Stats().Sched
	a.hits += float64(st.CacheHits)
	a.subs += float64(st.Submitted)
	rc.addServiceStats(st)
	a.svc = nil

	// A repeat is served from the cache (or joins the in-flight miss) and
	// must return exactly the bytes of the analysis that filled it.
	var bad []string
	for i := 0; i < rc.n; i++ {
		j := a.list[i].Repeat
		if j < 0 || a.cur[i] == nil || a.cur[j] == nil {
			continue
		}
		if *a.cur[i] != *a.cur[j] {
			bad = append(bad, fmt.Sprintf("op %d (repeat of %d)", i, j))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d cache hits differ from the miss that filled them, first %s", len(bad), bad[0])
	}
	for i := 0; i < rc.n; i++ {
		if c := a.cur[i]; c != nil {
			if a.ref[i] == nil {
				a.ref[i] = c
			} else if *a.ref[i] != *c {
				bad = append(bad, fmt.Sprintf("op %d", i))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d analyses differ from an earlier round, first %s", len(bad), bad[0])
	}
	return nil
}

// verifySample is how many elision results finish re-derives.
const verifySample = 32

// finish replays the proofs behind a seeded sample of elision results with
// vsa.Verify, jvet's independent re-derivation, and requires the service's
// rule file to be the one the proofs cover.
func (a *analyzeWL) finish(rep *report) int {
	var cand []int
	for i, op := range a.list {
		if op.Repeat < 0 && a.ref[i] != nil &&
			(op.Tool == "jasan-elide" || op.Tool == "jmsan-elide" || op.Tool == "jtsan-elide") {
			cand = append(cand, i)
		}
	}
	r := rand.New(rand.NewSource(a.seed))
	r.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	cand = cand[:min(verifySample, len(cand))]
	for _, i := range cand {
		op := a.list[i]
		main, _, _, err := op.build()
		if err != nil {
			rep.fail("verify op %d: build: %v", i, err)
			continue
		}
		rf, ps, err := core.AnalyzeModuleProofs(main, newTool(op.Tool))
		if err != nil {
			rep.fail("verify op %d: analyze: %v", i, err)
			continue
		}
		if vio := vsa.Verify(main, ps, rf); len(vio) > 0 {
			rep.fail("verify op %d %s@%d/%s: %d proof violations, first %s",
				i, op.Prog, op.Scale, op.Tool, len(vio), vio[0])
		}
		if sha256.Sum256(rf.Marshal()) != a.ref[i].main {
			rep.fail("verify op %d %s@%d/%s: service rule file differs from the verified one",
				i, op.Prog, op.Scale, op.Tool)
		}
	}
	return len(cand)
}

func (a *analyzeWL) layers(map[string]float64) {}

func (*analyzeWL) slowdowns() map[string]float64 { return nil }

func (a *analyzeWL) summary() []string {
	rep := 0
	for _, op := range a.list {
		if op.Repeat >= 0 {
			rep++
		}
	}
	return []string{fmt.Sprintf("%d operations per round, %d repeats; service cache hits %.0f of %.0f module requests",
		len(a.list), rep, a.hits, a.subs)}
}
