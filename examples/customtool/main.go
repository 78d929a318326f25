// Custom-tool demo: a whole new binary-analysis technique — a function-call
// profiler — built on the Janitizer framework in under a hundred lines.
// The static pass marks call sites with a custom rewrite rule carrying the
// callee's name; the instrumentation increments an in-guest counter per
// site; a block-local rule source covers calls in code the static analyzer
// never saw. This is the framework flexibility the paper's §4 demonstrates with
// JASan and JCFI.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rules"
)

// ruleCallSite is our tool-private rule ID; Data1 is the counter slot index.
const ruleCallSite = rules.CustomBase

// counterRegion is where the per-site counters live in guest memory.
const counterRegion uint64 = 0x7400_0000

// profiler implements core.Tool.
type profiler struct {
	names []string          // slot -> callee label
	slots map[string]uint64 // callee label -> slot
}

func newProfiler() *profiler { return &profiler{slots: map[string]uint64{}} }

func (p *profiler) Name() string { return "call-profiler" }

func (p *profiler) slot(label string) uint64 {
	if s, ok := p.slots[label]; ok {
		return s
	}
	s := uint64(len(p.names))
	p.slots[label] = s
	p.names = append(p.names, label)
	return s
}

// StaticPass marks every direct call with the callee's symbolic name.
func (p *profiler) StaticPass(sc *core.StaticContext) []rules.Rule {
	var out []rules.Rule
	for _, blk := range sc.Graph.SortedBlocks() {
		term := blk.Terminator()
		if term.Op != isa.OpCall {
			continue
		}
		label := fmt.Sprintf("%s!%#x", sc.Module.Name, term.Target())
		if fn := sc.Graph.FuncAt(term.Target()); fn != nil {
			label = sc.Module.Name + "!" + fn.Name
		}
		out = append(out, rules.Rule{
			ID: ruleCallSite, BBAddr: blk.Start, Instr: term.Addr,
			Data: [4]uint64{p.slot(label)},
		})
	}
	return out
}

// bump emits `counter[slot]++` preserving registers and flags.
func bump(e *dbm.Emitter, slot uint64) {
	mk := dbm.MkInstr
	addr := counterRegion + slot*8
	e.SaveProlog(true, []isa.Register{isa.R6, isa.R7})
	e.Meta(mk(isa.OpMovRI, func(i *isa.Instr) { i.Rd, i.Imm = isa.R6, int64(addr) }))
	e.Meta(mk(isa.OpLdQ, func(i *isa.Instr) { i.Rd, i.Rb = isa.R7, isa.R6 }))
	e.Meta(mk(isa.OpAddRI, func(i *isa.Instr) { i.Rd, i.Imm = isa.R7, 1 }))
	e.Meta(mk(isa.OpStQ, func(i *isa.Instr) { i.Rd, i.Rb = isa.R7, isa.R6 }))
	e.RestoreEpilog(true, []isa.Register{isa.R6, isa.R7})
}

// PlanStatic applies the rules, whether prepared statically or by
// BlockRules. The framework runs a plan's Before hook ahead of, and its
// After hook behind, every application instruction of the block.
func (p *profiler) PlanStatic(bc *dbm.BlockContext, instrRules map[uint64][]rules.Rule) core.InstrPlan {
	return staticPlan{bc, instrRules}
}

type staticPlan struct {
	bc    *dbm.BlockContext
	rules map[uint64][]rules.Rule
}

func (s staticPlan) Before(e *dbm.Emitter, idx int) {
	for _, r := range s.rules[s.bc.AppInstrs[idx].Addr] {
		if r.ID == ruleCallSite {
			bump(e, r.Data[0])
		}
	}
}

func (staticPlan) After(*dbm.Emitter, int) {}

// BlockRules profiles calls in dynamically discovered code too: the same
// rule, from a block-local look at each call.
func (p *profiler) BlockRules(bc *dbm.BlockContext) map[uint64][]rules.Rule {
	out := map[uint64][]rules.Rule{}
	for _, in := range bc.AppInstrs {
		if in.Op == isa.OpCall {
			out[in.Addr] = []rules.Rule{{ID: ruleCallSite, BBAddr: bc.Start, Instr: in.Addr,
				Data: [4]uint64{p.slot(fmt.Sprintf("dynamic!%#x", in.Target()))}}}
		}
	}
	return out
}

func (p *profiler) RuntimeInit(*core.Runtime) error { return nil }

const workload = `
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}
int square(int x) { return x * x; }
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += fib(i) + square(i);
    int *p = malloc(32);
    p[0] = s;
    s = p[0];
    free(p);
    return s & 127;
}`

func main() {
	mod, err := cc.Compile(workload, cc.Options{Module: "prog", O2: true})
	if err != nil {
		log.Fatal(err)
	}
	lj, err := libj.Module()
	if err != nil {
		log.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}
	tool := newProfiler()
	files, err := core.AnalyzeProgram(mod, reg, tool)
	if err != nil {
		log.Fatal(err)
	}
	s, err := core.Load(mod, reg, tool, files, core.Options{MaxInstrs: 10_000_000})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	m := s.M

	type row struct {
		label string
		count uint64
	}
	var rows []row
	for slot, label := range tool.names {
		c, _ := m.Mem.Read64(counterRegion + uint64(slot)*8)
		if c > 0 {
			rows = append(rows, row{label, c})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fmt.Printf("call profile (exit %d):\n", m.ExitStatus)
	for _, r := range rows {
		fmt.Printf("  %8d  %s\n", r.count, r.label)
	}
}
