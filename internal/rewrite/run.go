package rewrite

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/jcfi"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/vm"
)

// Options configures a static or hybrid run: core.Options under the name
// existing callers build.
type Options = core.Options

// RunResult is the outcome of a static or hybrid execution.
type RunResult struct {
	// Machine is the finished machine (cycles, instrs, exit status).
	Machine *vm.Machine
	// Runtime is the tool runtime the run used.
	Runtime *core.Runtime
	// Rewritten maps module name to its rewritten form and manifest.
	Rewritten map[string]*Rewritten
}

// RewriteModules applies each plan to its module across main's dependency
// closure, returning the rewritten modules keyed by name. Modules without
// a plan are returned untouched (nil manifest entry is not created).
func RewriteModules(main *obj.Module, reg loader.Registry,
	plans map[string]*Plan) (map[string]*Rewritten, error) {

	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %w", err)
	}
	out := make(map[string]*Rewritten, len(plans))
	for _, mod := range mods {
		p := plans[mod.Name]
		if p == nil {
			continue
		}
		rw, err := Apply(mod, p)
		if err != nil {
			return nil, err
		}
		out[mod.Name] = rw
	}
	return out, nil
}

// coveredRanges answers "does this runtime address execute statically
// rewritten code": the `.jrw` copy ranges plus the pinned trampolines.
type coveredRanges struct {
	ranges [][2]uint64 // sorted [lo, hi) runtime copy ranges
	pins   map[uint64]bool
}

func (c *coveredRanges) contains(pc uint64) bool {
	if c.pins[pc] {
		return true
	}
	i := sort.Search(len(c.ranges), func(i int) bool { return pc < c.ranges[i][1] })
	return i < len(c.ranges) && pc >= c.ranges[i][0]
}

// prepared is the common setup shared by RunStatic and RunHybrid: modules
// rewritten, process loaded, placement assumptions verified, trap origins
// and the tool runtime installed.
type prepared struct {
	*core.Session
	rw  map[string]*Rewritten
	cov *coveredRanges
}

func prepare(main *obj.Module, reg loader.Registry, tool core.Tool,
	files map[string]*rules.File, plans map[string]*Plan, opts Options) (*prepared, error) {

	rw, err := RewriteModules(main, reg, plans)
	if err != nil {
		return nil, err
	}
	// Swap the rewritten modules in under their original names.
	newReg := loader.Registry{}
	for name, mod := range reg {
		newReg[name] = mod
	}
	newMain := main
	for name, r := range rw {
		if name == main.Name {
			newMain = r.Module
		}
		if _, ok := newReg[name]; ok {
			newReg[name] = r.Module
		}
	}

	s, err := core.Load(newMain, newReg, tool, files, opts)
	if err != nil {
		return nil, fmt.Errorf("rewrite: load: %w", err)
	}

	m, proc := s.M, s.Proc
	m.TrapOrigin = map[uint64]uint64{}
	cov := &coveredRanges{pins: map[uint64]bool{}}
	for name, r := range rw {
		lmx := proc.ModuleByName(name)
		if lmx == nil {
			return nil, fmt.Errorf("rewrite: rewritten module %s never loaded", name)
		}
		// The plan's addresses are only meaningful under the placement
		// they were captured with; the loader is deterministic, so a
		// mismatch means the program changed since capture.
		base := uint64(0)
		if lmx.PIC {
			base = lmx.LoadBase
		}
		man := r.Manifest
		if base != man.AssumedBase || int32(lmx.ID) != man.ModuleID {
			return nil, fmt.Errorf(
				"rewrite: %s loaded at base %#x id %d, plan assumed base %#x id %d",
				name, base, lmx.ID, man.AssumedBase, man.ModuleID)
		}
		for copyLink, orig := range man.TrapOrigin {
			m.TrapOrigin[lmx.RuntimeAddr(copyLink)] = orig
		}
		cov.ranges = append(cov.ranges, [2]uint64{
			lmx.RuntimeAddr(man.CopyLo), lmx.RuntimeAddr(man.CopyHi)})
		for _, pin := range man.Pinned {
			cov.pins[lmx.RuntimeAddr(pin)] = true
		}
	}
	sort.Slice(cov.ranges, func(i, j int) bool { return cov.ranges[i][0] < cov.ranges[j][0] })

	if err := s.RT.Tool.RuntimeInit(s.RT); err != nil {
		return nil, fmt.Errorf("rewrite: runtime init: %w", err)
	}
	return &prepared{Session: s, rw: rw, cov: cov}, nil
}

// RunStatic executes the program fully natively with the statically
// rewritten modules: no dynamic modifier at all. Code the applier refused
// runs as original, uninstrumented application code; the JCFI return
// checker is told which return targets are uninstrumented so shadow-stack
// entries skipped by uncovered frames reconcile instead of reporting
// false violations.
func RunStatic(main *obj.Module, reg loader.Registry, tool core.Tool,
	files map[string]*rules.File, plans map[string]*Plan, opts Options) (*RunResult, error) {

	p, err := prepare(main, reg, tool, files, plans, opts)
	if err != nil {
		return nil, err
	}
	for _, jt := range jcfiTools(p.RT.Tool) {
		cov := p.cov
		jt.State().TolerateUninstrumented = func(target uint64) bool {
			// Instrumented returns always target copy code; anything
			// else came from an uncovered (original) frame.
			return !cov.contains(target) || cov.pins[target]
		}
	}
	return p.run()
}

// RunHybrid executes the statically rewritten modules natively and fails
// over to the runtime's own dynamic modifier for every address outside the
// rewritten copies: code the applier refused or never saw is classified
// against the rule tables built from files and instrumented exactly as the
// dynamic backend would, instead of the static backend's
// uninstrumented-native fallback. Which of the two runs a block is decided
// once, when it misses the machine's block cache.
func RunHybrid(main *obj.Module, reg loader.Registry, tool core.Tool,
	files map[string]*rules.File, plans map[string]*Plan, opts Options) (*RunResult, error) {

	p, err := prepare(main, reg, tool, files, plans, opts)
	if err != nil {
		return nil, err
	}
	m, d := p.M, p.RT.DBM
	m.Translate = func(pc uint64) (*vm.Block, error) {
		if p.cov.contains(pc) {
			return m.NativeBlock(pc)
		}
		return d.Translate(pc)
	}
	return p.run()
}

// run executes the program on the machine's dispatch loop.
func (p *prepared) run() (*RunResult, error) {
	if err := p.M.Run(p.Entry); err != nil {
		return nil, err
	}
	return &RunResult{Machine: p.M, Runtime: p.RT, Rewritten: p.rw}, nil
}

// jcfiTools extracts every JCFI instance reachable through tool (directly
// or composed under a MultiTool).
func jcfiTools(tool core.Tool) []*jcfi.Tool {
	switch tt := tool.(type) {
	case *jcfi.Tool:
		return []*jcfi.Tool{tt}
	case *core.MultiTool:
		var out []*jcfi.Tool
		for _, sub := range tt.Tools {
			out = append(out, jcfiTools(sub)...)
		}
		return out
	}
	return nil
}
