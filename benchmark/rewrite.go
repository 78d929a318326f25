package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"repro/internal/rewrite"
)

// The bake-off's schemes: every tool whose plans both AOT backends consume.
var rewriteSchemes = []string{"jasan-hybrid", "jcfi-hybrid", "jmsan-hybrid", "comprehensive"}

// rewriteCell is one (program, scheme, backend) capture-and-run.
type rewriteCell struct {
	prog    int
	scheme  string
	backend string // "static" or "hybrid"
}

func rewriteCells(seed int64, nprog int) []rewriteCell {
	var cells []rewriteCell
	for p := 0; p < nprog; p++ {
		for _, s := range rewriteSchemes {
			for _, b := range []string{"static", "hybrid"} {
				cells = append(cells, rewriteCell{p, s, b})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) {
		cells[i], cells[j] = cells[j], cells[i]
	})
	return cells
}

// rewriteWL captures each scheme's rewrite plans and runs the rewritten
// program on the static and hybrid backends.
type rewriteWL struct {
	progs []*program
	cells []rewriteCell
	ref   []*cellOut
	cur   []*cellOut
}

func setupRewrite(cfg config) (workload, error) {
	progs, err := buildSuite(suiteNames(cfg), rewriteSchemes, cfg.workers)
	if err != nil {
		return nil, err
	}
	cells := rewriteCells(cfg.seed, len(progs))
	return &rewriteWL{progs: progs, cells: cells, ref: make([]*cellOut, len(cells))}, nil
}

func (w *rewriteWL) ops() int { return len(w.cells) }

func (w *rewriteWL) begin(*round) error {
	w.cur = make([]*cellOut, len(w.cells))
	return nil
}

func (w *rewriteWL) do(rc *round, i int) error {
	c := w.cells[i]
	p := w.progs[c.prog]
	files := p.files[c.scheme]
	ot := rc.trace("rewrite.cell", i)
	defer ot.end()
	fail := func(stage string, err error) error {
		return fmt.Errorf("%s/%s/%s: %s: %w", p.name, c.scheme, c.backend, stage, err)
	}

	// Capture uses its own tool instance: it initialises a scratch runtime
	// the measured run must not share.
	sp := ot.child("rewrite.capture")
	plans, err := rewrite.CapturePlans(p.main, p.reg, files, newTool(c.scheme))
	sp.end()
	if err != nil {
		return fail("capture", err)
	}
	if rc.traced {
		sp = ot.child("rewrite.apply")
		_, err := rewrite.RewriteModules(p.main, p.reg, plans)
		sp.end()
		if err != nil {
			return fail("apply", err)
		}
	}

	out := &bytes.Buffer{}
	opts := rewrite.Options{MaxInstrs: maxInstrs, Out: out}
	var rr *rewrite.RunResult
	if c.backend == "static" {
		sp = ot.child("rewrite.run_static")
		rr, err = rewrite.RunStatic(p.main, p.reg, newTool(c.scheme), files, plans, opts)
	} else {
		sp = ot.child("rewrite.run_hybrid")
		rr, err = rewrite.RunHybrid(p.main, p.reg, newTool(c.scheme), files, plans, opts)
	}
	sp.end()
	if err != nil {
		return fail("run", err)
	}
	if err := p.checkNative(rr.Machine, out.Bytes()); err != nil {
		return fail("check", err)
	}
	if rc.traced {
		for _, r := range rr.Rewritten {
			rc.add("rewrite.refused_funcs", float64(len(r.Manifest.Refused)))
		}
		if c.backend == "hybrid" {
			rc.add("rewrite.hybrid_dbm_blocks", float64(rr.Runtime.DBM.Stats.BlocksBuilt))
		}
	}
	w.cur[i] = &cellOut{cycles: rr.Machine.Cycles, instrs: rr.Machine.Instrs, out: sha256.Sum256(out.Bytes())}
	return nil
}

func (w *rewriteWL) end(rc *round) error {
	return checkRepeat(rc, w.ref, w.cur, func(i int) string {
		c := w.cells[i]
		return w.progs[c.prog].name + "/" + c.scheme + "/" + c.backend
	})
}

func (w *rewriteWL) finish(*report) int { return 0 }

// slowdowns folds both backends' cells of a scheme into its geomean.
func (w *rewriteWL) slowdowns() map[string]float64 {
	return geomeanSlowdowns(w.progs, w.ref, func(i int) (int, string) {
		return w.cells[i].prog, w.cells[i].scheme
	})
}

func (w *rewriteWL) layers(map[string]float64) {}

func (w *rewriteWL) summary() []string { return nil }
