package jcfi

import (
	"fmt"
	"sort"

	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// targetSets is the Go-side mirror of one module's run-time tables, kept for
// AIR accounting.
type TargetSets struct {
	Call map[uint64]bool // run-time addresses valid for indirect calls
	Jump map[uint64]bool // run-time addresses valid for indirect jumps
	// Ret holds valid return targets for table-based (BinCFI-style)
	// return policies.
	Ret map[uint64]bool
	// exported are the module's own outward-visible targets (exports +
	// address-taken), contributed to every other module's call set.
	Exported map[uint64]bool
}

// runtime is JCFI's dynamic state: per-module tables in VM memory plus the
// shadow stack and mirrors for metrics.
type RTState struct {
	m *vm.Machine
	// sets maps module ID to its Go-side target sets.
	sets map[int]*TargetSets
	// counts of inserted entries per VM table base (load-factor guard).
	counts map[uint64]int
	// TolerateUninstrumented, when non-nil, marks the purely static
	// rewriting backend: code outside the statically rewritten regions
	// runs without instrumentation, so shadow-stack pushes and pops no
	// longer pair up at coverage boundaries. The callback reports whether
	// a return target lies in UNinstrumented code. A return mismatch is
	// then reconciled instead of reported when it is explainable by such
	// a boundary (see reconcileShadow); genuine mismatches within covered
	// code still report. The dynamic and hybrid backends instrument
	// everything and leave this nil.
	TolerateUninstrumented func(target uint64) bool
}

// NewRTState creates the CFI run-time table state over a machine.
func NewRTState(m *vm.Machine) *RTState {
	return &RTState{m: m, sets: map[int]*TargetSets{}, counts: map[uint64]int{}}
}

// sortedModuleIDs returns the registered module IDs in ascending order, so
// table operations that walk every module are deterministic.
func sortedModuleIDs(sets map[int]*TargetSets) []int {
	ids := make([]int, 0, len(sets))
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// sortedTargets returns a target set's addresses in ascending order. The VM
// hash tables use open addressing, so insertion order decides probe-chain
// shape (and with it the cycles a lookup costs): every bulk insert must go
// through a sorted view, never raw map iteration.
func sortedTargets(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for tgt := range set {
		out = append(out, tgt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tombstone marks a deleted hash-table slot: probes continue past it (it is
// non-zero) but it never matches a code address.
const tombstone = ^uint64(0)

// removeVM deletes a target from the VM hash table at base, leaving a
// tombstone so later probe chains stay intact.
func (s *RTState) removeVM(base, target uint64) error {
	if target == 0 {
		return nil
	}
	h := (target >> 3) & tableMask
	for i := 0; i < tableSlots; i++ {
		slot := base + h*8
		v, err := s.m.Mem.Read64(slot)
		if err != nil {
			return err
		}
		if v == target {
			return s.m.Mem.Write64(slot, tombstone)
		}
		if v == 0 {
			return nil // not present
		}
		h = (h + 1) & tableMask
	}
	return nil
}

// RemoveModule drops an unloaded module's contribution to the run-time
// target sets: its own tables are cleared and its outward-visible targets
// are deleted from every other module's call table — the dynamic update on
// unload that footnote 5 attributes to Lockdown. Without this, a later
// module reusing the address range would inherit stale permissions.
func (s *RTState) RemoveModule(id int) error {
	set := s.sets[id]
	if set == nil {
		return nil
	}
	// Clear the module's own tables.
	zero := make([]byte, tableSlots*8)
	for _, base := range []uint64{CallTableBase(id), JumpTableBase(id), RetTableBase(id)} {
		if err := s.m.Mem.WriteBytes(base, zero); err != nil {
			return err
		}
		s.counts[base] = 0
	}
	// Delete its exported targets everywhere else.
	exported := sortedTargets(set.Exported)
	for _, otherID := range sortedModuleIDs(s.sets) {
		if otherID == id {
			continue
		}
		other := s.sets[otherID]
		for _, tgt := range exported {
			if other.Call[tgt] {
				delete(other.Call, tgt)
				if err := s.removeVM(CallTableBase(otherID), tgt); err != nil {
					return err
				}
			}
			if other.Jump[tgt] {
				delete(other.Jump, tgt)
				if err := s.removeVM(JumpTableBase(otherID), tgt); err != nil {
					return err
				}
			}
		}
	}
	delete(s.sets, id)
	return nil
}

// insertVM adds a target to the VM hash table at base (open addressing).
func (s *RTState) insertVM(base, target uint64) error {
	if target == 0 {
		return nil // zero is the empty-slot marker
	}
	if s.counts[base] >= tableSlots*3/4 {
		return fmt.Errorf("jcfi: target table at %#x overfull", base)
	}
	h := (target >> 3) & tableMask
	for i := 0; i < tableSlots; i++ {
		slot := base + h*8
		v, err := s.m.Mem.Read64(slot)
		if err != nil {
			return err
		}
		if v == target {
			return nil
		}
		if v == 0 || v == tombstone {
			s.counts[base]++
			return s.m.Mem.Write64(slot, target)
		}
		h = (h + 1) & tableMask
	}
	return fmt.Errorf("jcfi: table full")
}

// addCallTarget registers a valid indirect-call target for module id, in
// both the VM table and the mirror.
func (s *RTState) AddCallTarget(id int, target uint64) error {
	set := s.Ensure(id)
	if set.Call[target] {
		return nil
	}
	set.Call[target] = true
	return s.insertVM(CallTableBase(id), target)
}

// addJumpTarget registers a valid indirect-jump target for module id.
func (s *RTState) AddJumpTarget(id int, target uint64) error {
	set := s.Ensure(id)
	if set.Jump[target] {
		return nil
	}
	set.Jump[target] = true
	return s.insertVM(JumpTableBase(id), target)
}

func (s *RTState) Ensure(id int) *TargetSets {
	set := s.sets[id]
	if set == nil {
		set = &TargetSets{
			Call: map[uint64]bool{}, Jump: map[uint64]bool{},
			Ret: map[uint64]bool{}, Exported: map[uint64]bool{},
		}
		s.sets[id] = set
	}
	return set
}

// NearestFuncRange returns the run-time [lo,hi) byte range of the function
// containing rtAddr, identified by the closest surrounding function symbols
// (the nearest-symbol policy dynamic-only tools fall back to, footnote 15).
// It returns (0,0) when no symbol precedes the address.
func NearestFuncRange(lm *loader.LoadedModule, rtAddr uint64) (uint64, uint64) {
	link := lm.LinkAddr(rtAddr)
	syms := lm.FuncSymbols() // sorted by address
	lo, hi := uint64(0), uint64(0)
	found := false
	for i, s := range syms {
		if s.Addr > link {
			break
		}
		found = true
		lo = s.Addr
		if i+1 < len(syms) {
			hi = syms[i+1].Addr
		} else if sec := lm.SectionAt(s.Addr); sec != nil {
			hi = sec.Addr + uint64(len(sec.Data))
		}
	}
	if !found || hi <= lo {
		return 0, 0
	}
	return lm.RuntimeAddr(lo), lm.RuntimeAddr(hi)
}

// ModuleExecRange returns the run-time address range spanning the module's
// executable sections (the weakest any-byte-in-module policy).
func ModuleExecRange(lm *loader.LoadedModule) (uint64, uint64) {
	lo, hi := ^uint64(0), uint64(0)
	for _, sec := range lm.ExecSections() {
		if sec.Addr < lo {
			lo = sec.Addr
		}
		if end := sec.Addr + uint64(len(sec.Data)); end > hi {
			hi = end
		}
	}
	if hi <= lo {
		return 0, 0
	}
	return lm.RuntimeAddr(lo), lm.RuntimeAddr(hi)
}

// AddRetTarget registers a valid return target for module id (BinCFI-style
// policies).
func (s *RTState) AddRetTarget(id int, target uint64) error {
	set := s.Ensure(id)
	if set.Ret[target] {
		return nil
	}
	set.Ret[target] = true
	return s.insertVM(RetTableBase(id), target)
}

// installShadowStack initialises the shadow-stack pointer slot.
func InstallShadowStack(m *vm.Machine) error {
	return m.Mem.Write64(isa.LayoutShadowStackPtr, isa.LayoutShadowStackBase)
}

// InstallViolationTraps registers the forward/backward violation handlers,
// recording into rep.
func (s *RTState) InstallViolationTraps(rep *diag.Report) {
	for reg := isa.Register(0); reg < isa.NumRegs; reg++ {
		reg := reg
		s.m.HandleTrap(trapForwardBase+int64(reg), func(m *vm.Machine) error {
			return rep.Add(diag.Violation{
				Kind: "forward-edge", PC: m.TrapPC, Target: m.Regs[reg],
				Rule: rules.CFICall.String(), CostCenter: telemetry.CCCFICheck.String(),
			})
		})
		s.m.HandleTrap(trapReturnBase+int64(reg), func(m *vm.Machine) error {
			actual := m.Regs[reg]
			if s.TolerateUninstrumented != nil {
				ok, err := reconcileShadow(m, actual, s.TolerateUninstrumented)
				if err != nil {
					return err
				}
				if ok {
					return nil
				}
			}
			return rep.Add(diag.Violation{
				Kind: "return-mismatch", PC: m.TrapPC, Target: actual,
				Rule: rules.CFIRet.String(), CostCenter: telemetry.CCShadowStack.String(),
			})
		})
	}
}

// reconcileShadow handles a return mismatch under the purely static backend,
// where coverage boundaries legitimately unbalance the shadow stack. At trap
// time the instrumented ret has already popped one entry: [SSP] = sspOrig-8,
// and that popped ("expected") entry did not match the actual return target.
// Two benign explanations exist:
//
//  1. A covered caller invoked uncovered code that returned without a
//     checked ret, leaking its shadow entry. The correct entry then sits
//     deeper in the shadow stack: scan downward for the actual target and,
//     if found, pop through it (discarding the leaked entries above).
//  2. An uncovered caller invoked this covered function without a shadow
//     push, so the pop consumed a deeper frame's entry. If the actual
//     return target lies in uninstrumented code, restore the pop.
//
// Anything else — in particular a corrupted return address into covered
// code — is a genuine violation and reports as usual. Tolerating returns
// into uninstrumented code is exactly the comprehensiveness gap of static
// rewriters the paper criticises; the hybrid backend closes it by running
// uncovered code under the DBM instead.
func reconcileShadow(m *vm.Machine, actual uint64, uninstrumented func(uint64) bool) (bool, error) {
	sspNow, err := m.Mem.Read64(isa.LayoutShadowStackPtr)
	if err != nil {
		return false, err
	}
	for p := sspNow - 8; p >= isa.LayoutShadowStackBase && p < sspNow; p -= 8 {
		v, err := m.Mem.Read64(p)
		if err != nil {
			return false, err
		}
		if v == actual {
			return true, m.Mem.Write64(isa.LayoutShadowStackPtr, p)
		}
	}
	if uninstrumented(actual) {
		return true, m.Mem.Write64(isa.LayoutShadowStackPtr, sspNow+8)
	}
	return false, nil
}

// moduleScan is the load-time analysis for modules WITHOUT static rules
// (§4.2.2): a raw-binary sliding-window code-pointer scan, refined by
// function symbols when available; for stripped modules it falls back to
// the weaker Lockdown-style policy (exported symbols + code-section
// addresses at instruction boundaries).
//
// The scan itself is shared with the static pass (ScanCodePointers).
func LoadTimeScan(lm *loader.LoadedModule) (callTargets, jumpTargets []uint64) {
	mod := lm.Module
	boundaries := InstrBoundaries(mod)
	funcs := map[uint64]bool{}
	for _, s := range mod.FuncSymbols() {
		funcs[s.Addr] = true
	}
	hasSymbols := mod.SymLevel == obj.SymFull && len(funcs) > 0

	for _, ptr := range ScanCodePointers(mod) {
		if hasSymbols {
			if funcs[ptr] {
				callTargets = append(callTargets, ptr)
			}
		} else if boundaries[ptr] {
			// Weaker policy for stripped binaries.
			callTargets = append(callTargets, ptr)
		}
		if boundaries[ptr] {
			jumpTargets = append(jumpTargets, ptr)
		}
	}
	for _, s := range mod.ExportedSymbols() {
		if s.Kind == obj.SymFunc {
			callTargets = append(callTargets, s.Addr)
			jumpTargets = append(jumpTargets, s.Addr)
		}
	}
	for i := range mod.Imports {
		callTargets = append(callTargets, mod.Imports[i].PLT+8)
		jumpTargets = append(jumpTargets, mod.Imports[i].PLT+8)
	}
	return callTargets, jumpTargets
}

// instrBoundaries linearly sweeps executable sections recording decodable
// instruction addresses (the boundary notion BinCFI-class scans rely on).
func InstrBoundaries(mod *obj.Module) map[uint64]bool {
	out := map[uint64]bool{}
	for _, sec := range mod.ExecSections() {
		pc := sec.Addr
		end := sec.Addr + uint64(len(sec.Data))
		for pc < end {
			in, err := decodeAt(sec, pc)
			if err != nil {
				pc++ // resynchronise one byte later, as linear sweeps do
				continue
			}
			out[pc] = true
			pc += uint64(in.Size)
		}
	}
	return out
}

func decodeAt(sec *obj.Section, pc uint64) (isa.Instr, error) {
	off := pc - sec.Addr
	return isa.Decode(sec.Data[off:], pc)
}

// ScanCodePointers performs the 4-byte sliding-window scan of §4.2.1 over
// the module's RAW bytes — all sections, code included, since functions may
// be address-taken through instruction immediates as well as data tables:
// every 4-byte little-endian window, advancing one byte at a time, whose
// value lands inside an executable section is a code-pointer candidate.
// Callers refine candidates against function entries (JCFI) or instruction
// boundaries (BinCFI's weaker policy).
func ScanCodePointers(mod *obj.Module) []uint64 {
	inExec := func(a uint64) bool {
		sec := mod.SectionAt(a)
		return sec != nil && sec.Executable()
	}
	seen := map[uint64]bool{}
	var out []uint64
	for i := range mod.Sections {
		sec := &mod.Sections[i]
		d := sec.Data
		for off := 0; off+4 <= len(d); off++ {
			v := uint64(d[off]) | uint64(d[off+1])<<8 |
				uint64(d[off+2])<<16 | uint64(d[off+3])<<24
			if v != 0 && inExec(v) && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
