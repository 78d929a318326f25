package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// cellOut is what one execution produced; every round must reproduce it.
type cellOut struct {
	cycles, instrs uint64
	out            [sha256.Size]byte
}

// cell is one (program, scheme) execution.
type cell struct {
	prog   int
	scheme string // "native" or one of dynamicSchemes
}

// dynamicCells lists every (program, scheme) pair in a seed-shuffled order.
func dynamicCells(seed int64, nprog int) []cell {
	var cells []cell
	for p := 0; p < nprog; p++ {
		for _, s := range append([]string{"native"}, dynamicSchemes...) {
			cells = append(cells, cell{p, s})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) {
		cells[i], cells[j] = cells[j], cells[i]
	})
	return cells
}

// tinyPrograms are the cheapest spec workloads, for the tiny test size.
var tinyPrograms = []string{"lbm", "mcf"}

func suiteNames(cfg config) []string {
	if cfg.tiny {
		return tinyPrograms
	}
	return spec.Names()
}

// dynamic runs the 28 spec programs natively and under each dynamic scheme
// on the DBM.
type dynamic struct {
	progs []*program
	cells []cell
	ref   []*cellOut // first result of each cell, compared across rounds
	cur   []*cellOut
	prof  []*telemetry.Profile // traced rounds only
}

func setupDynamic(cfg config) (workload, error) {
	names := suiteNames(cfg)
	progs, err := buildSuite(names, dynamicSchemes, cfg.workers)
	if err != nil {
		return nil, err
	}
	cells := dynamicCells(cfg.seed, len(progs))
	return &dynamic{progs: progs, cells: cells, ref: make([]*cellOut, len(cells))}, nil
}

func (d *dynamic) ops() int { return len(d.cells) }

func (d *dynamic) begin(rc *round) error {
	d.cur = make([]*cellOut, len(d.cells))
	if rc.traced {
		d.prof = make([]*telemetry.Profile, len(d.cells))
	}
	return nil
}

func (d *dynamic) do(rc *round, i int) error {
	c := d.cells[i]
	p := d.progs[c.prog]
	ot := rc.trace("dynamic.cell", i)
	defer ot.end()
	m, out := newMachine()
	proc := loader.NewProcess(m, p.reg)
	var rt *core.Runtime
	var tool core.Tool
	if c.scheme != "native" {
		tool = newTool(c.scheme)
		rt = core.NewRuntime(m, proc, tool, p.files[c.scheme])
		if rc.traced {
			d.prof[i] = &telemetry.Profile{}
			rt.DBM.Prof = d.prof[i]
		}
	}
	sp := ot.child("loader.load")
	lm, err := proc.LoadProgram(p.main)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s/%s: load: %w", p.name, c.scheme, err)
	}
	rc.add("loader.loads", float64(len(proc.Modules)))
	entry := lm.RuntimeAddr(p.main.Entry)
	if rt == nil {
		sp = ot.child("vm.native")
		err = m.Run(entry)
		sp.end()
		rc.add("vm.instrs", float64(m.Instrs))
	} else {
		sp = ot.child("dbm.run")
		err = rt.Run(entry)
		sp.end()
		if rc.traced {
			st := rt.DBM.Stats
			rc.add("dbm.instrs", float64(m.Instrs))
			rc.add("dbm.blocks_built", float64(st.BlocksBuilt))
			rc.add("dbm.block_execs", float64(st.BlockExecs))
			rc.add("dbm.indirect_dispatch", float64(st.IndirectDispatch))
			rc.add("dbm.cache_hits", float64(st.CacheHits))
			rc.add("dbm.flushes", float64(st.Flushes))
			rc.add("dbm.fallback_blocks", float64(rt.Coverage.Fallback))
			rc.add("dbm.classified_blocks", float64(rt.Coverage.Total()))
			sp = ot.child("diag.collect")
			log := diag.NewLog()
			n := diag.Collect(log, tool, diag.NewProcessSymbolizer(proc), telemetry.SpanContext{})
			sp.end()
			rc.add("diag.records", float64(n))
		}
	}
	if err != nil {
		return fmt.Errorf("%s/%s: run: %w", p.name, c.scheme, err)
	}
	if err := p.checkNative(m, out.Bytes()); err != nil {
		return fmt.Errorf("%s/%s: %w", p.name, c.scheme, err)
	}
	if rc.traced && rt != nil {
		b := d.prof[i].Breakdown()
		if b.App != p.cycles || b.Total() != m.Cycles {
			return fmt.Errorf("%s/%s: cost centers do not add up: app %d (native %d), total %d (cycles %d)",
				p.name, c.scheme, b.App, p.cycles, b.Total(), m.Cycles)
		}
	}
	d.cur[i] = &cellOut{cycles: m.Cycles, instrs: m.Instrs, out: sha256.Sum256(out.Bytes())}
	return nil
}

func (d *dynamic) end(rc *round) error {
	return checkRepeat(rc, d.ref, d.cur, func(i int) string {
		c := d.cells[i]
		return d.progs[c.prog].name + "/" + c.scheme
	})
}

// checkRepeat records each operation's first output and requires every
// later round to reproduce it exactly.
func checkRepeat(rc *round, ref, cur []*cellOut, name func(int) string) error {
	var bad []string
	for i := 0; i < rc.n; i++ {
		c := cur[i]
		if c == nil {
			continue // the operation failed and was counted already
		}
		if ref[i] == nil {
			ref[i] = c
		} else if *ref[i] != *c {
			bad = append(bad, fmt.Sprintf("%s: cycles %d instrs %d, earlier %d %d",
				name(i), c.cycles, c.instrs, ref[i].cycles, ref[i].instrs))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d operations differ from an earlier round, first %s", len(bad), bad[0])
	}
	return nil
}

func (d *dynamic) finish(*report) int { return 0 }

func (d *dynamic) slowdowns() map[string]float64 {
	return geomeanSlowdowns(d.progs, d.ref, func(i int) (int, string) {
		return d.cells[i].prog, d.cells[i].scheme
	})
}

// geomeanSlowdowns folds the recorded cycles of every cell into one
// geomean slowdown per scheme, over the native cycles of each cell's
// program. The slowdowns are sorted before folding, so the result does not
// depend on the seeded cell order down to the last bit.
func geomeanSlowdowns(progs []*program, ref []*cellOut, cellOf func(i int) (int, string)) map[string]float64 {
	by := map[string][]float64{}
	for i, r := range ref {
		p, s := cellOf(i)
		if s != "native" && r != nil {
			by[s] = append(by[s], metrics.Slowdown(r.cycles, progs[p].cycles))
		}
	}
	out := map[string]float64{}
	for s, v := range by {
		sort.Float64s(v)
		out[s] = metrics.Geomean(v)
	}
	return out
}

// layers folds the traced rounds' cost-center profiles into each scheme's
// overhead shares.
func (d *dynamic) layers(vals map[string]float64) {
	var sum = map[string]*telemetry.Breakdown{}
	for i, pr := range d.prof {
		if pr == nil {
			continue
		}
		s := d.cells[i].scheme
		if sum[s] == nil {
			sum[s] = &telemetry.Breakdown{}
		}
		b := pr.Breakdown()
		sum[s].ShadowUpdate += b.ShadowUpdate
		sum[s].Check += b.Check
		sum[s].Elided += b.Elided
		sum[s].Dispatch += b.Dispatch
		sum[s].Other += b.Other
	}
	for s, b := range sum {
		o := float64(b.Overhead())
		if o == 0 {
			continue
		}
		vals["profile."+s+".check_frac"] = float64(b.Check) / o
		vals["profile."+s+".shadow_frac"] = float64(b.ShadowUpdate) / o
		vals["profile."+s+".dispatch_frac"] = float64(b.Dispatch) / o
	}
}

func (d *dynamic) summary() []string { return nil }
