package vsa

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
)

const (
	// widenAfter is the number of joins into one block before widening
	// replaces join (termination guarantee). Kept high enough that typical
	// bounded loops converge to their exact bound first.
	widenAfter = 8
	// maxSlots bounds the number of tracked frame slots per state.
	maxSlots = 64
	// summaryRounds caps the interprocedural summary fixpoint. Summaries
	// only ever weaken, so this is a safety valve, not a precision knob.
	summaryRounds = 32
)

// slotVal is one tracked frame slot: its abstract value plus whether the
// last write was a push (a compiler-managed register-save slot, which the
// memory-discipline axiom keeps alive across calls and wild stores).
type slotVal struct {
	v    Value
	push bool
}

// State is the abstract machine state at one program point: one Value per
// register plus the tracked frame slots (keyed by F-relative byte offset).
type State struct {
	Regs  [isa.NumRegs]Value
	slots map[int64]slotVal
}

// entryState is the state at function entry: every register holds its own
// symbolic entry value (SP's entry value is the frame base F).
func entryState() *State {
	st := &State{}
	for r := isa.Register(0); r < isa.NumRegs; r++ {
		st.Regs[r] = EntryV(r)
	}
	return st
}

// entryStateFor is the entry state for the function at entry, applying any
// registered override. Override entries with region RBot (the zero Value)
// keep the symbolic entry value; SP always stays symbolic — it is the frame
// base every tracked slot is relative to.
func (e *engine) entryStateFor(entry uint64) *State {
	st := entryState()
	ov := e.overrides[entry]
	if ov == nil {
		return st
	}
	for r := isa.Register(0); r < isa.NumRegs; r++ {
		if r == isa.SP || ov[r].Region == RBot {
			continue
		}
		st.Regs[r] = ov[r]
	}
	return st
}

func (st *State) clone() *State {
	ns := &State{Regs: st.Regs}
	if len(st.slots) > 0 {
		ns.slots = make(map[int64]slotVal, len(st.slots))
		for k, v := range st.slots {
			ns.slots[k] = v
		}
	}
	return ns
}

// joinFrom joins src into st (in place), widening grown bounds when widen is
// set. It reports whether st changed.
func (st *State) joinFrom(src *State, widen bool) bool {
	changed := false
	for r := range st.Regs {
		var nv Value
		if widen {
			nv = st.Regs[r].Widen(src.Regs[r])
		} else {
			nv = st.Regs[r].Join(src.Regs[r])
		}
		if !nv.Eq(st.Regs[r]) {
			st.Regs[r] = nv
			changed = true
		}
	}
	for off, sv := range st.slots {
		ov, ok := src.slots[off]
		if !ok {
			delete(st.slots, off)
			changed = true
			continue
		}
		var nv Value
		if widen {
			nv = sv.v.Widen(ov.v)
		} else {
			nv = sv.v.Join(ov.v)
		}
		push := sv.push && ov.push
		if !nv.Eq(sv.v) || push != sv.push {
			st.slots[off] = slotVal{v: nv, push: push}
			changed = true
		}
	}
	return changed
}

func frameSingleton(v Value) (int64, bool) {
	if !v.IsFrame() {
		return 0, false
	}
	return v.Singleton()
}

// killSlots drops every slot overlapping the byte range [lo,hi].
func (st *State) killSlots(lo, hi int64) {
	for off := range st.slots {
		if off+7 >= lo && off <= hi {
			delete(st.slots, off)
		}
	}
}

func (st *State) setSlot(off int64, v Value, push bool) {
	st.killSlots(off-7, off+7)
	if st.slots == nil {
		st.slots = map[int64]slotVal{}
	}
	if len(st.slots) >= maxSlots {
		return
	}
	st.slots[off] = slotVal{v: v, push: push}
}

// dropStoreSlots removes slots last written by ordinary stores, keeping
// push slots (the memory-discipline axiom: register-save slot addresses
// never escape, so unknown stores and callees cannot alias them).
func (st *State) dropStoreSlots() {
	for off, sv := range st.slots {
		if !sv.push {
			delete(st.slots, off)
		}
	}
}

// dropSlotsBelow removes every slot at an F-offset strictly below off:
// addresses at or below the current stack pointer are architecturally
// clobberable by callees.
func (st *State) dropSlotsBelow(off int64) {
	for o := range st.slots {
		if o < off {
			delete(st.slots, o)
		}
	}
}

func (st *State) clearSlots() { st.slots = nil }

// havocAll forgets everything: registers and slots.
func (st *State) havocAll() {
	for r := range st.Regs {
		st.Regs[r] = Top()
	}
	st.slots = nil
}

// FnSummary abstracts a call's effect on the caller: which registers the
// callee provably restores, and whether it returns with the stack balanced
// (SP on return == SP before the call).
type FnSummary struct {
	Preserved analysis.RegMask
	Balanced  bool
}

const allRegs = analysis.RegMask(1<<isa.NumRegs - 1)

var (
	worstSummary = &FnSummary{}
	// abiSummary is the import-call axiom: a well-behaved library function
	// preserves the callee-saved registers and the stack pointer. cmd/jvet
	// discharges it against the exporting module's derived summary.
	abiSummary = &FnSummary{
		Preserved: analysis.RegMask(0).With(isa.R12).With(isa.R13).With(isa.FP),
		Balanced:  true,
	}
)

// Result is the finished analysis of one module.
type Result struct {
	G   *cfg.Graph
	Mod *obj.Module
	// Summaries maps function entries to their call-effect summaries.
	Summaries map[uint64]*FnSummary
	// Poisoned functions have statically evident interior entry points
	// (cross-function edges or data-embedded interior code pointers);
	// no facts are derived for them.
	Poisoned map[uint64]bool
	// FrameSizes maps function entries to prologue-allocated frame bytes.
	FrameSizes map[uint64]int64
	// CanarySlots maps function entries to F-relative canary slot offsets.
	CanarySlots map[uint64][]int64
	// canaryBad marks functions whose canary slot address could not be
	// pinned to a frame singleton; frame claims there are suppressed.
	canaryBad map[uint64]bool
	// Assumes maps function entries to the sorted, transitively closed set
	// of axioms their facts depend on (e.g. "abi:mallocj").
	Assumes map[uint64][]string

	entries map[uint64]*State // block start -> entry state
	eng     *engine
}

type funcRun struct {
	states    map[uint64]*State
	preserved analysis.RegMask
	balanced  bool
	assumes   map[string]bool
	callees   map[uint64]bool
}

func (fr *funcRun) meet(pres analysis.RegMask, bal bool) {
	fr.preserved &= pres
	fr.balanced = fr.balanced && bal
}

type engine struct {
	g          *cfg.Graph
	mod        *obj.Module
	sums       map[uint64]*FnSummary
	poisoned   map[uint64]bool
	frameSize  map[uint64]int64
	pltName    map[uint64]string // PLT stub entry -> import name
	tableWords map[uint64]bool   // data words belonging to discovered jump tables
	overrides  map[uint64]*RegOverride
}

// RegOverride narrows the entry state of one function: each non-Top entry
// replaces the symbolic entry value of its register. The override must
// over-approximate every concrete entry of the function (e.g. the join of
// the argument values at all of its call sites) or derived facts are
// unsound.
type RegOverride [isa.NumRegs]Value

// Analyze runs the value-set analysis over one module's recovered CFG.
// canaries are the module's detected canary sites (analysis.FindCanaries);
// their slots are excluded from frame claims.
func Analyze(mod *obj.Module, g *cfg.Graph, canaries []analysis.CanarySite) *Result {
	return AnalyzeWithEntries(mod, g, canaries, nil)
}

// AnalyzeWithEntries is Analyze with per-function entry-state overrides:
// each function listed starts its fixpoint from the given register values
// instead of fully symbolic entry values. internal/jlint uses it to
// specialize static-call-only functions on the joined constant arguments of
// their call sites, turning may-alarms into must-alarms.
func AnalyzeWithEntries(mod *obj.Module, g *cfg.Graph, canaries []analysis.CanarySite,
	overrides map[uint64]*RegOverride) *Result {

	e := &engine{
		g:          g,
		mod:        mod,
		sums:       map[uint64]*FnSummary{},
		poisoned:   map[uint64]bool{},
		frameSize:  map[uint64]int64{},
		pltName:    map[uint64]string{},
		tableWords: map[uint64]bool{},
		overrides:  overrides,
	}
	for _, jt := range g.JumpTables {
		for k := range jt.Targets {
			e.tableWords[jt.TableAddr+uint64(k)*8] = true
		}
	}
	for _, fn := range g.Funcs {
		if name, ok := strings.CutSuffix(fn.Name, "@plt"); ok {
			e.pltName[fn.Entry] = name
		}
		e.frameSize[fn.Entry] = int64(analysis.StackSize(fn))
	}
	e.computePoisoned()
	// Optimistic start (greatest fixpoint): every function preserves
	// everything except the return register, and balances its stack.
	// Iteration only ever weakens; the fixpoint is sound by induction on
	// the length of terminating executions.
	for _, fn := range g.Funcs {
		if e.poisoned[fn.Entry] || e.pltName[fn.Entry] != "" {
			continue
		}
		e.sums[fn.Entry] = &FnSummary{
			Preserved: allRegs.Without(isa.R0).Without(isa.SP),
			Balanced:  true,
		}
	}
	for round := 0; round < summaryRounds; round++ {
		changed := false
		for _, fn := range g.Funcs {
			old := e.sums[fn.Entry]
			if old == nil {
				continue
			}
			fr := e.runFunc(fn)
			ns := FnSummary{
				Preserved: old.Preserved & fr.preserved,
				Balanced:  old.Balanced && fr.balanced,
			}
			if ns != *old {
				e.sums[fn.Entry] = &ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	res := &Result{
		G:           g,
		Mod:         mod,
		Summaries:   map[uint64]*FnSummary{},
		Poisoned:    e.poisoned,
		FrameSizes:  e.frameSize,
		CanarySlots: map[uint64][]int64{},
		canaryBad:   map[uint64]bool{},
		Assumes:     map[uint64][]string{},
		entries:     map[uint64]*State{},
		eng:         e,
	}
	for entry, s := range e.sums {
		res.Summaries[entry] = s
	}
	// Final pass: record per-block entry states and per-function direct
	// assumptions + callees, then close the assumptions transitively over
	// the call graph.
	directAssume := map[uint64]map[string]bool{}
	callees := map[uint64]map[uint64]bool{}
	for _, fn := range g.Funcs {
		if e.poisoned[fn.Entry] || e.pltName[fn.Entry] != "" {
			continue
		}
		fr := e.runFunc(fn)
		for addr, st := range fr.states {
			res.entries[addr] = st
		}
		directAssume[fn.Entry] = fr.assumes
		callees[fn.Entry] = fr.callees
	}
	closeAssumes(res, directAssume, callees)
	res.deriveCanarySlots(canaries)
	return res
}

// closeAssumes propagates assumption sets from callees to callers until
// stable, then stores them sorted.
func closeAssumes(res *Result, direct map[uint64]map[string]bool, callees map[uint64]map[uint64]bool) {
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for c := range cs {
				for a := range direct[c] {
					if !direct[fn][a] {
						direct[fn][a] = true
						changed = true
					}
				}
			}
		}
	}
	for fn, as := range direct {
		out := make([]string, 0, len(as))
		for a := range as {
			out = append(out, a)
		}
		sort.Strings(out)
		res.Assumes[fn] = out
	}
}

// deriveCanarySlots pins each canary site's slot to an F-relative offset
// using the state at the store. Sites whose slot cannot be pinned suppress
// every frame claim in their function.
func (res *Result) deriveCanarySlots(canaries []analysis.CanarySite) {
	for _, site := range canaries {
		st := res.stateAt(site.StoreAddr)
		if st == nil {
			res.canaryBad[site.Func] = true
			continue
		}
		addr := st.Regs[site.SlotBase].AddConst(int64(site.SlotDisp))
		off, ok := frameSingleton(addr)
		if !ok {
			res.canaryBad[site.Func] = true
			continue
		}
		res.CanarySlots[site.Func] = append(res.CanarySlots[site.Func], off)
	}
	for fn, offs := range res.CanarySlots {
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		res.CanarySlots[fn] = offs
	}
}

// stateAt recomputes the abstract state immediately before the instruction
// at addr, or nil when the containing block was not analysed.
func (res *Result) stateAt(addr uint64) *State {
	blk := res.G.BlockAt(addr)
	if blk == nil {
		return nil
	}
	var out *State
	res.WalkBlock(blk, func(i int, in *isa.Instr, st *State) {
		if in.Addr == addr {
			out = st.clone()
		}
	})
	return out
}

// WalkBlock replays the transfer function across blk, invoking f with the
// state *before* each instruction. It reports false when no state is
// available for the block (unreached, or in a poisoned function).
func (res *Result) WalkBlock(blk *cfg.BasicBlock, f func(i int, in *isa.Instr, st *State)) bool {
	ent, ok := res.entries[blk.Start]
	if !ok {
		return false
	}
	st := ent.clone()
	for i := range blk.Instrs {
		f(i, &blk.Instrs[i], st)
		if i < len(blk.Instrs)-1 {
			res.eng.step(st, &blk.Instrs[i])
		}
	}
	return true
}

// Clone returns an independent deep copy of the state.
func (st *State) Clone() *State { return st.clone() }

// Step applies the transfer function of in to st in place, under this
// result's module context (PLT map, summaries). WalkBlock hands out the
// state *before* each instruction; Step advances it past one.
func (res *Result) Step(st *State, in *isa.Instr) { res.eng.step(st, in) }

// BlockReached reports whether the fixpoint derived an entry state for the
// block at start: false means no feasible path from its function's entry
// reaches it (or its function is poisoned / has no recovered blocks).
func (res *Result) BlockReached(start uint64) bool {
	_, ok := res.entries[start]
	return ok
}

// FeasibleSuccs returns the same-function successor block starts the
// analysis considers executable from blk: branch edges whose refined
// constraint is satisfiable, resolved jump-table edges, and call/trap
// fallthroughs. It returns nil when blk itself was never reached. The slice
// is ordered (taken edge first for conditionals) and duplicate-free.
func (res *Result) FeasibleSuccs(blk *cfg.BasicBlock) []uint64 {
	ent, ok := res.entries[blk.Start]
	if !ok || len(blk.Instrs) == 0 || blk.Fn == nil {
		return nil
	}
	st := ent.clone()
	n := len(blk.Instrs)
	for i := 0; i < n-1; i++ {
		res.eng.step(st, &blk.Instrs[i])
	}
	term := &blk.Instrs[n-1]
	fall := term.Addr + uint64(term.Size)
	sameFn := func(t uint64) bool {
		tb := res.G.Blocks[t]
		return tb != nil && tb.Fn == blk.Fn
	}
	var out []uint64
	add := func(t uint64) {
		if !sameFn(t) {
			return
		}
		for _, s := range out {
			if s == t {
				return
			}
		}
		out = append(out, t)
	}
	switch term.Op {
	case isa.OpJmp:
		add(term.Target())
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJae:
		taken := st.clone()
		if refineEdge(blk, taken, true) {
			add(term.Target())
		}
		if refineEdge(blk, st, false) {
			add(fall)
		}
	case isa.OpCall, isa.OpCallI:
		add(fall)
	case isa.OpJmpI:
		if jt := res.eng.g.JumpTables[term.Addr]; jt != nil {
			for _, t := range jt.Targets {
				add(t)
			}
		}
	case isa.OpRet, isa.OpHlt:
		// No intra-function successors.
	default:
		res.eng.step(st, term)
		for _, s := range blk.Succs {
			add(s)
		}
	}
	return out
}

// ValidJumpTarget reports whether t is admissible for an indirect jump in
// fn under the module-global CFI policy (see validJumpTarget). Exported for
// internal/jlint's bad-indirect unsafety check.
func (res *Result) ValidJumpTarget(fn *cfg.Function, t uint64) bool {
	return res.validJumpTarget(fn, t)
}

// computePoisoned marks functions with statically evident interior entries:
// cross-function CFG edges landing past the entry, and aligned data words
// that decode as interior code pointers (excluding discovered jump-table
// words, whose edges are ordinary intra-function successors).
func (e *engine) computePoisoned() {
	for _, blk := range e.g.Blocks {
		bf := e.g.FuncAt(blk.Start)
		for _, s := range blk.Succs {
			sf := e.g.FuncAt(s)
			if sf != nil && sf != bf && s != sf.Entry {
				e.poisoned[sf.Entry] = true
			}
		}
	}
	for _, p := range e.g.CodePtrs {
		if e.tableWords[p.Addr] || !e.g.IsInstrBoundary(p.Value) {
			continue
		}
		if f := e.g.FuncAt(p.Value); f != nil && p.Value != f.Entry {
			e.poisoned[f.Entry] = true
		}
	}
}

// summaryFor resolves the call-effect summary for a direct transfer to t,
// plus the ABI assumption tag when t is a PLT stub.
func (e *engine) summaryFor(t uint64) (*FnSummary, string) {
	if name := e.pltName[t]; name != "" {
		return abiSummary, "abi:" + name
	}
	f := e.g.FuncAt(t)
	if f == nil || f.Entry != t || e.poisoned[t] {
		return worstSummary, ""
	}
	if s := e.sums[t]; s != nil {
		return s, ""
	}
	return worstSummary, ""
}

// runFunc runs the intra-function fixpoint for fn under the current
// summaries and returns the per-block entry states plus the function's own
// summary contribution.
func (e *engine) runFunc(fn *cfg.Function) *funcRun {
	fr := &funcRun{
		states:    map[uint64]*State{},
		preserved: allRegs,
		balanced:  true,
		assumes:   map[string]bool{},
		callees:   map[uint64]bool{},
	}
	entryBlk := e.g.Blocks[fn.Entry]
	if entryBlk == nil || entryBlk.Fn != fn {
		return fr
	}
	fr.states[fn.Entry] = e.entryStateFor(fn.Entry)
	visits := map[uint64]int{}
	work := []uint64{fn.Entry}
	onList := map[uint64]bool{fn.Entry: true}
	prop := func(succ uint64, ns *State) {
		tb := e.g.Blocks[succ]
		if tb == nil || tb.Fn != fn {
			return
		}
		cur, ok := fr.states[succ]
		if !ok {
			fr.states[succ] = ns.clone()
		} else {
			visits[succ]++
			if !cur.joinFrom(ns, visits[succ] > widenAfter) {
				return
			}
		}
		if !onList[succ] {
			onList[succ] = true
			work = append(work, succ)
		}
	}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		onList[addr] = false
		blk := e.g.Blocks[addr]
		if blk == nil || blk.Fn != fn || len(blk.Instrs) == 0 {
			continue
		}
		st := fr.states[addr].clone()
		e.walkBlock(fn, fr, blk, st, prop)
	}
	return fr
}

// walkBlock applies the transfer function across blk and dispatches the
// terminator: edge propagation, call-summary application, and summary
// contributions at exits.
func (e *engine) walkBlock(fn *cfg.Function, fr *funcRun, blk *cfg.BasicBlock,
	st *State, prop func(uint64, *State)) {

	n := len(blk.Instrs)
	for i := 0; i < n-1; i++ {
		e.step(st, &blk.Instrs[i])
	}
	term := &blk.Instrs[n-1]
	fall := term.Addr + uint64(term.Size)
	switch term.Op {
	case isa.OpJmp:
		e.flowTo(fn, fr, st, term.Target(), prop)
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJae:
		taken := st.clone()
		if refineEdge(blk, taken, true) {
			e.flowTo(fn, fr, taken, term.Target(), prop)
		}
		if refineEdge(blk, st, false) {
			e.flowTo(fn, fr, st, fall, prop)
		}
	case isa.OpCall:
		e.applyCall(fr, st, term.Target())
		prop(fall, st)
	case isa.OpCallI:
		e.applyIndirectCall(fr, st)
		prop(fall, st)
	case isa.OpJmpI:
		e.flowIndirect(fn, fr, term, st, prop)
	case isa.OpRet:
		// Direct exit. Sound return requires SP back at F (pointing at
		// the pushed return address); otherwise control leaves through an
		// unknown target and the contribution is the worst.
		if st.Regs[isa.SP].IsEntryOf(isa.SP) {
			fr.meet(e.entryRegs(st), true)
		} else {
			fr.meet(0, false)
		}
	case isa.OpHlt:
		// No successors, no contribution: the function never returns
		// through this path.
	default:
		// Non-CTI terminator: syscall/trap, or fallthrough into a leader.
		e.step(st, term)
		for _, s := range blk.Succs {
			e.flowTo(fn, fr, st.clone(), s, prop)
		}
	}
}

// entryRegs returns the mask of registers (excluding SP) still holding
// their entry values in st.
func (e *engine) entryRegs(st *State) analysis.RegMask {
	var m analysis.RegMask
	for r := isa.Register(0); r < isa.NumRegs; r++ {
		if r == isa.SP {
			continue
		}
		if st.Regs[r].IsEntryOf(r) {
			m = m.With(r)
		}
	}
	return m
}

// flowTo handles a direct edge to t: an ordinary intra-function edge, a
// tail transfer to another function's entry (composing its summary), or a
// jump into foreign interior code (worst case).
func (e *engine) flowTo(fn *cfg.Function, fr *funcRun, st *State, t uint64,
	prop func(uint64, *State)) {

	tf := e.g.FuncAt(t)
	if tf == fn {
		prop(t, st)
		return
	}
	if tf != nil && t == tf.Entry {
		e.tailExit(fr, st, t)
		return
	}
	fr.meet(0, false)
}

// tailExit records the summary contribution of a tail transfer to function
// t: our effect so far composed with t's summary.
func (e *engine) tailExit(fr *funcRun, st *State, t uint64) {
	sum, tag := e.summaryFor(t)
	if tag != "" {
		fr.assumes[tag] = true
	} else if f := e.g.FuncAt(t); f != nil && f.Entry == t {
		fr.callees[t] = true
	}
	if !st.Regs[isa.SP].IsEntryOf(isa.SP) || !sum.Balanced {
		fr.meet(0, false)
		return
	}
	fr.meet(e.entryRegs(st)&sum.Preserved, true)
}

// flowIndirect handles a jmpi terminator: discovered jump tables become
// ordinary edges, PLT dispatch becomes the ABI axiom, anything else is a
// worst-case exit.
func (e *engine) flowIndirect(fn *cfg.Function, fr *funcRun, term *isa.Instr,
	st *State, prop func(uint64, *State)) {

	if jt := e.g.JumpTables[term.Addr]; jt != nil {
		for _, t := range jt.Targets {
			e.flowTo(fn, fr, st.clone(), t, prop)
		}
		return
	}
	if name := e.pltName[fn.Entry]; name != "" {
		// PLT stub dispatch (GOT jump or lazy-resolver path): modelled as
		// a tail transfer into the imported function under the ABI axiom.
		fr.assumes["abi:"+name] = true
		if st.Regs[isa.SP].IsEntryOf(isa.SP) {
			fr.meet(e.entryRegs(st)&abiSummary.Preserved, true)
		} else {
			fr.meet(0, false)
		}
		return
	}
	fr.meet(0, false)
}

// applyCall applies the callee's summary to the caller state at a direct
// call site.
func (e *engine) applyCall(fr *funcRun, st *State, t uint64) {
	sum, tag := e.summaryFor(t)
	if tag != "" {
		fr.assumes[tag] = true
	} else if f := e.g.FuncAt(t); f != nil && f.Entry == t {
		fr.callees[t] = true
	}
	e.applySummary(st, sum)
}

// applySummary applies a callee's call effect to the caller state.
func (e *engine) applySummary(st *State, sum *FnSummary) {
	if !sum.Balanced {
		st.havocAll()
		return
	}
	// Everything at or below the pre-call SP is inside the callee's reach
	// (return address at SP-8, callee frame below); tracked slots there
	// cannot survive.
	if spOff, ok := frameSingleton(st.Regs[isa.SP]); ok {
		st.dropSlotsBelow(spOff)
	} else {
		st.clearSlots()
	}
	for r := isa.Register(0); r < isa.NumRegs; r++ {
		if r == isa.SP {
			continue // balanced callee restores SP
		}
		if !sum.Preserved.Has(r) {
			st.Regs[r] = Top()
		}
	}
	st.dropStoreSlots()
}

// AssumeIndirectCall is the axiom tag recorded when a fact's derivation
// crosses an indirect call: the unknown callee is assumed to follow the
// calling convention (returns with SP restored and the callee-saved
// registers intact — exactly what abiSummary promises for named imports).
// Unlike "abi:<name>" this is not dischargeable against a concrete
// exporter — it is part of the documented trust base (DESIGN.md), the same
// discipline every compiled function already exhibits.
const AssumeIndirectCall = "cc:indirect-call"

// applyIndirectCall applies the indirect-call effect under the
// AssumeIndirectCall axiom: the ABI summary, with no tracked store slot
// surviving the unknown callee.
func (e *engine) applyIndirectCall(fr *funcRun, st *State) {
	fr.assumes[AssumeIndirectCall] = true
	e.applySummary(st, abiSummary)
}

// step is the transfer function for one non-terminator instruction.
func (e *engine) step(st *State, in *isa.Instr) {
	switch in.Op {
	case isa.OpMovRI:
		st.Regs[in.Rd] = ConstV(in.Imm)
	case isa.OpMovRR:
		st.Regs[in.Rd] = st.Regs[in.Rb]
	case isa.OpLea:
		st.Regs[in.Rd] = st.Regs[in.Rb].AddConst(int64(in.Disp))
	case isa.OpLeaX:
		st.Regs[in.Rd] = Add(st.Regs[in.Rb], st.Regs[in.Ri].MulConst(8)).
			AddConst(int64(in.Disp))
	case isa.OpLeaXB:
		st.Regs[in.Rd] = Add(st.Regs[in.Rb], st.Regs[in.Ri]).
			AddConst(int64(in.Disp))
	case isa.OpLeaPC:
		t := in.Target()
		if e.mod.PIC {
			st.Regs[in.Rd] = LinkV(t)
		} else {
			st.Regs[in.Rd] = ConstV(int64(t))
		}
	case isa.OpLdPC, isa.OpLdG:
		st.Regs[in.Rd] = Top()
	case isa.OpLdB, isa.OpLdXB:
		st.Regs[in.Rd] = ConstRange(0, 255, 1)
	case isa.OpLdQ:
		v := Top()
		if off, ok := frameSingleton(st.Regs[in.Rb].AddConst(int64(in.Disp))); ok {
			if sv, ok2 := st.slots[off]; ok2 {
				v = sv.v
			}
		}
		st.Regs[in.Rd] = v
	case isa.OpLdXQ:
		st.Regs[in.Rd] = Top()
	case isa.OpStQ, isa.OpStB, isa.OpStXQ, isa.OpStXB:
		e.storeTo(st, AddrValue(st, in), st.Regs[in.Rd], int64(in.AccessWidth()),
			in.Op == isa.OpStQ)
	case isa.OpAddRI:
		st.Regs[in.Rd] = st.Regs[in.Rd].AddConst(in.Imm)
	case isa.OpSubRI:
		st.Regs[in.Rd] = st.Regs[in.Rd].AddConst(-in.Imm)
	case isa.OpMulRI:
		if in.Imm >= 0 {
			st.Regs[in.Rd] = st.Regs[in.Rd].MulConst(in.Imm)
		} else {
			st.Regs[in.Rd] = Top()
		}
	case isa.OpAndRI:
		st.Regs[in.Rd] = st.Regs[in.Rd].AndImm(in.Imm)
	case isa.OpOrRI, isa.OpXorRI:
		if in.Imm != 0 {
			st.Regs[in.Rd] = Top()
		}
	case isa.OpShlRI:
		if in.Imm >= 0 && in.Imm < 63 {
			st.Regs[in.Rd] = st.Regs[in.Rd].MulConst(1 << uint(in.Imm))
		} else {
			st.Regs[in.Rd] = Top()
		}
	case isa.OpShrRI:
		st.Regs[in.Rd] = st.Regs[in.Rd].ShrConst(in.Imm)
	case isa.OpAddRR:
		st.Regs[in.Rd] = Add(st.Regs[in.Rd], st.Regs[in.Rb])
	case isa.OpSubRR:
		st.Regs[in.Rd] = Sub(st.Regs[in.Rd], st.Regs[in.Rb])
	case isa.OpMulRR:
		a, aok := st.Regs[in.Rd].Singleton()
		b, bok := st.Regs[in.Rb].Singleton()
		if aok && bok && st.Regs[in.Rd].Region == RConst &&
			st.Regs[in.Rb].Region == RConst {
			st.Regs[in.Rd] = ConstV(a * b)
		} else {
			st.Regs[in.Rd] = Top()
		}
	case isa.OpDivRR, isa.OpRemRR, isa.OpAndRR, isa.OpOrRR, isa.OpXorRR,
		isa.OpShlRR, isa.OpShrRR, isa.OpNot:
		st.Regs[in.Rd] = Top()
	case isa.OpNeg:
		if v, ok := st.Regs[in.Rd].Singleton(); ok &&
			st.Regs[in.Rd].Region == RConst && v != minBound {
			st.Regs[in.Rd] = ConstV(-v)
		} else {
			st.Regs[in.Rd] = Top()
		}
	case isa.OpCmpRR, isa.OpCmpRI, isa.OpTestRR, isa.OpNop:
		// Flags only.
	case isa.OpPush:
		v := st.Regs[in.Rd]
		sp := st.Regs[isa.SP].AddConst(-8)
		st.Regs[isa.SP] = sp
		if off, ok := frameSingleton(sp); ok {
			st.setSlot(off, v, true)
		} else {
			st.clearSlots()
		}
	case isa.OpPushF:
		sp := st.Regs[isa.SP].AddConst(-8)
		st.Regs[isa.SP] = sp
		if off, ok := frameSingleton(sp); ok {
			st.setSlot(off, Top(), true)
		} else {
			st.clearSlots()
		}
	case isa.OpPop:
		v := Top()
		if off, ok := frameSingleton(st.Regs[isa.SP]); ok {
			if sv, ok2 := st.slots[off]; ok2 {
				v = sv.v
			}
		}
		newSP := st.Regs[isa.SP].AddConst(8)
		st.Regs[in.Rd] = v
		if in.Rd == isa.SP {
			st.Regs[isa.SP] = Top()
		} else {
			st.Regs[isa.SP] = newSP
		}
	case isa.OpPopF:
		st.Regs[isa.SP] = st.Regs[isa.SP].AddConst(8)
	case isa.OpSyscall, isa.OpTrap:
		// VM semantics: services return in R0 and clobber nothing else.
		st.Regs[isa.R0] = Top()
	default:
		// Terminators are handled in walkBlock; anything unrecognised
		// clobbers its destination conservatively.
		for _, d := range in.RegDefs(nil) {
			st.Regs[d] = Top()
		}
	}
}

// storeTo applies a store's effect on the tracked slots.
func (e *engine) storeTo(st *State, addr, v Value, width int64, quad bool) {
	if off, ok := frameSingleton(addr); ok {
		if quad {
			st.setSlot(off, v, false)
		} else {
			st.killSlots(off-7, off+width-1)
		}
		return
	}
	if addr.IsFrame() {
		// Provably frame-based with an imprecise offset: may hit any slot
		// in range, push slots included.
		if !addr.Bounded() {
			st.clearSlots()
		} else {
			st.killSlots(addr.Lo-7, satAdd(addr.Hi, width-1))
		}
		return
	}
	// Not provably frame: ordinary tracked values may alias, push slots
	// survive by the memory-discipline axiom.
	st.dropStoreSlots()
}

// AddrValue evaluates the abstract address of the memory operand of in
// under st; Top if in is no load or store.
func AddrValue(st *State, in *isa.Instr) Value {
	switch in.MemAddr() {
	case isa.AddrBase:
		return st.Regs[in.Rb].AddConst(int64(in.Disp))
	case isa.AddrIndex8:
		return Add(st.Regs[in.Rb], st.Regs[in.Ri].MulConst(8)).
			AddConst(int64(in.Disp))
	case isa.AddrIndex1:
		return Add(st.Regs[in.Rb], st.Regs[in.Ri]).AddConst(int64(in.Disp))
	}
	return Top()
}

// refineEdge narrows the branched-on register along one edge of a
// conditional branch. The pattern is the compare-and-branch idiom: the last
// flag-setting instruction must be a cmp-immediate — or a cmp-register
// whose other operand holds a known integer singleton — with the refined
// register not redefined before the branch. It reports false when the
// constraint is infeasible (the edge cannot execute).
func refineEdge(blk *cfg.BasicBlock, st *State, taken bool) bool {
	n := len(blk.Instrs)
	term := &blk.Instrs[n-1]
	var cmp *isa.Instr
	var cmpIdx int
scan:
	for i := n - 2; i >= 0; i-- {
		in := &blk.Instrs[i]
		switch in.Op {
		case isa.OpCmpRI, isa.OpCmpRR:
			cmp = in
			cmpIdx = i
			break scan
		case isa.OpTestRR:
			return true // flags from a form we do not refine
		default:
			if in.SetsFlags() {
				return true
			}
		}
	}
	if cmp == nil {
		return true
	}
	r := cmp.Rd
	imm := cmp.Imm
	op := term.Op
	if cmp.Op == isa.OpCmpRR {
		// cmp r, s with one side a known integer constant behaves exactly
		// like cmp-immediate. Both operands must reach the branch
		// unredefined: the constant side's value is read from the
		// end-of-block state below.
		for i := cmpIdx + 1; i < n-1; i++ {
			for _, d := range blk.Instrs[i].RegDefs(nil) {
				if d == cmp.Rd || d == cmp.Rb {
					return true
				}
			}
		}
		if c, ok := st.Regs[cmp.Rb].Singleton(); ok && st.Regs[cmp.Rb].Region == RConst {
			imm = c
		} else if c, ok := st.Regs[cmp.Rd].Singleton(); ok && st.Regs[cmp.Rd].Region == RConst {
			// Constant on the left: refine the right operand under the
			// mirrored condition (c < s  <=>  s > c, and so on). The
			// unsigned forms have no mirrored opcode; skip them.
			imm, r = c, cmp.Rb
			switch op {
			case isa.OpJl:
				op = isa.OpJg
			case isa.OpJle:
				op = isa.OpJge
			case isa.OpJg:
				op = isa.OpJl
			case isa.OpJge:
				op = isa.OpJle
			case isa.OpJb, isa.OpJae:
				return true
			}
		} else {
			return true
		}
	} else {
		for i := cmpIdx + 1; i < n-1; i++ {
			for _, d := range blk.Instrs[i].RegDefs(nil) {
				if d == r {
					return true
				}
			}
		}
	}
	lo, hi := int64(minBound), int64(maxBound)
	have := false
	// pin marks constraints that fully determine the value range whatever
	// the register held before (bit-pattern equality or an unsigned bound):
	// those may replace a symbolic value with the constant range.
	pin := false
	switch op {
	case isa.OpJe:
		if taken {
			lo, hi, have, pin = imm, imm, true, true
		}
	case isa.OpJne:
		if !taken {
			lo, hi, have = imm, imm, true
		}
	case isa.OpJl:
		if taken {
			hi, have = satAdd(imm, -1), true
		} else {
			lo, have = imm, true
		}
	case isa.OpJle:
		if taken {
			hi, have = imm, true
		} else {
			lo, have = satAdd(imm, 1), true
		}
	case isa.OpJg:
		if taken {
			lo, have = satAdd(imm, 1), true
		} else {
			hi, have = imm, true
		}
	case isa.OpJge:
		if taken {
			lo, have = imm, true
		} else {
			hi, have = satAdd(imm, -1), true
		}
	case isa.OpJb:
		// Unsigned compare: value <u imm. With 0 < imm (a sane bound
		// check), the taken side pins the value into [0, imm-1] whatever
		// it was before. The not-taken side (value >=u imm) only helps
		// when the value is already known non-negative.
		if taken {
			if imm > 0 {
				lo, hi, have, pin = 0, satAdd(imm, -1), true, true
			}
		} else if imm >= 0 && st.Regs[r].Region == RConst && st.Regs[r].Lo >= 0 {
			lo, have = imm, true
		}
	case isa.OpJae:
		if taken {
			if imm >= 0 && st.Regs[r].Region == RConst && st.Regs[r].Lo >= 0 {
				lo, have = imm, true
			}
		} else if imm > 0 {
			lo, hi, have, pin = 0, satAdd(imm, -1), true, true
		}
	}
	if !have {
		return true
	}
	if pin && (st.Regs[r].Region == REntry || st.Regs[r].Region == RLink) {
		// The constraint determines the numeric value outright; dropping
		// the symbolic base only gains precision (the jump-table index
		// pattern: a bounds check on an incoming argument).
		st.Regs[r] = ConstRange(lo, hi, 1)
		return true
	}
	nv, feasible := st.Regs[r].Intersect(lo, hi)
	if !feasible {
		return false
	}
	st.Regs[r] = nv
	return true
}
