// Package loader implements the JEF program loader and dynamic linker: the
// reproduction's ld.so. It places modules in a process address space
// (respecting fixed bases for non-PIC modules, assigning bases for PIC
// ones), applies load-time relocations, resolves the static dependency
// closure (the ldd-visible set), performs eager or lazy PLT binding, and
// services dlopen/dlsym.
//
// Lazy binding reproduces the control-flow abnormality the paper calls out
// in §4.2.3: the PLT resolver stub obtains the target address, pushes it on
// the application stack and executes a RET, using a return instruction as a
// call. CFI tools must special-case this.
package loader

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Registry is the set of modules available for loading, keyed by soname —
// the reproduction's filesystem/library path.
type Registry map[string]*obj.Module

// LoadedModule is a module placed in a process address space.
type LoadedModule struct {
	*obj.Module
	// ID is the load-order index of the module in its process.
	ID int
	// LoadBase is the run-time base: equal to Module.Base for non-PIC
	// modules, assigned by the loader for PIC modules.
	LoadBase uint64
	// Dlopened records whether the module arrived via dlopen rather than
	// the static dependency closure.
	Dlopened bool
	lo, span uint64 // link-time extent
}

// RuntimeAddr translates a link-time address to its run-time address.
func (lm *LoadedModule) RuntimeAddr(link uint64) uint64 {
	if lm.PIC {
		return link + lm.LoadBase
	}
	return link
}

// LinkAddr translates a run-time address back to the module's link-time
// address space.
func (lm *LoadedModule) LinkAddr(rt uint64) uint64 {
	if lm.PIC {
		return rt - lm.LoadBase
	}
	return rt
}

// Contains reports whether run-time address a falls inside the module image.
func (lm *LoadedModule) Contains(a uint64) bool {
	link := lm.LinkAddr(a)
	return link >= lm.lo && link < lm.lo+lm.span
}

// Process is one loaded program: a machine plus its module map and linker
// state.
type Process struct {
	M       *vm.Machine
	Reg     Registry
	Modules []*LoadedModule

	// Lazy selects lazy PLT binding (default) over eager binding.
	Lazy bool

	// OnModuleLoad hooks fire after each module is placed and relocated —
	// the dynamic modifier uses this to load rewrite-rule files alongside
	// modules, mirroring Janitizer's frontend.
	OnModuleLoad []func(*LoadedModule)
	// OnModuleUnload hooks fire before a module's image is discarded, so
	// the dynamic modifier can drop the module's rule table and flush its
	// cached code.
	OnModuleUnload []func(*LoadedModule)

	// LazyResolutions counts TrapResolve services performed.
	LazyResolutions int

	byName   map[string]*LoadedModule
	nextBase uint64
	nextID   int
	// freeBases holds load bases released by Unload, reused by later PIC
	// loads — so different modules really do occupy the same addresses at
	// different times (the scenario of the paper's footnote 2).
	freeBases []uint64
}

// NewProcess creates an empty process over machine m with the given module
// registry and installs the loader's service traps (resolve, dlopen, dlsym).
func NewProcess(m *vm.Machine, reg Registry) *Process {
	p := &Process{
		M:        m,
		Reg:      reg,
		Lazy:     true,
		byName:   map[string]*LoadedModule{},
		nextBase: isa.LayoutLibBase,
	}
	m.HandleTrap(isa.TrapResolve, p.trapResolve)
	m.HandleTrap(isa.TrapDlopen, p.trapDlopen)
	m.HandleTrap(isa.TrapDlsym, p.trapDlsym)
	m.HandleTrap(isa.TrapDlclose, p.trapDlclose)
	return p
}

// LoadProgram loads the main executable and its transitive static
// dependencies (the ldd closure), in dependency-first order, and returns the
// main module.
func (p *Process) LoadProgram(main *obj.Module) (*LoadedModule, error) {
	return p.load(main, false)
}

// Dlopen loads a module by name at run time, outside the static closure.
func (p *Process) Dlopen(name string) (*LoadedModule, error) {
	mod, ok := p.Reg[name]
	if !ok {
		return nil, fmt.Errorf("loader: dlopen %q: module not in registry", name)
	}
	return p.load(mod, true)
}

// ModuleByName returns the loaded module with the given soname, or nil.
func (p *Process) ModuleByName(name string) *LoadedModule { return p.byName[name] }

// ModuleAt returns the loaded module containing run-time address a, or nil.
func (p *Process) ModuleAt(a uint64) *LoadedModule {
	for _, lm := range p.Modules {
		if lm.Contains(a) {
			return lm
		}
	}
	return nil
}

// ResolveSymbol searches loaded modules in load order for an exported symbol
// and returns its run-time address. This is flat ELF-style namespace lookup.
func (p *Process) ResolveSymbol(name string) (uint64, *LoadedModule, bool) {
	for _, lm := range p.Modules {
		for i := range lm.Symbols {
			s := &lm.Symbols[i]
			if s.Exported && s.Name == name {
				return lm.RuntimeAddr(s.Addr), lm, true
			}
		}
	}
	return 0, nil, false
}

// load places mod (and, first, its unloaded dependencies) in memory.
func (p *Process) load(mod *obj.Module, dlopened bool) (*LoadedModule, error) {
	if lm, ok := p.byName[mod.Name]; ok {
		return lm, nil // already loaded; refcounting not modelled
	}
	sp := telemetry.StartSpan("loader.load",
		telemetry.String("module", mod.Name),
		telemetry.String("dlopened", fmt.Sprintf("%t", dlopened)))
	defer sp.End()
	if err := mod.Validate(); err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	// Dependencies first, so symbol resolution in load order finds them.
	for _, dep := range mod.Needed {
		depMod, ok := p.Reg[dep]
		if !ok {
			return nil, fmt.Errorf("loader: %s needs %q: not in registry", mod.Name, dep)
		}
		if _, err := p.load(depMod, dlopened); err != nil {
			return nil, err
		}
	}

	lo, span := mod.Extent()
	lm := &LoadedModule{
		Module: mod, ID: p.nextID, Dlopened: dlopened,
		lo: lo, span: span,
	}
	p.nextID++ // IDs are never reused, even after Unload
	if mod.PIC {
		// Prefer a base released by a previous unload when the module
		// fits its stride slot.
		reused := false
		for i, b := range p.freeBases {
			if span <= isa.LayoutLibStride {
				lm.LoadBase = b
				p.freeBases = append(p.freeBases[:i], p.freeBases[i+1:]...)
				reused = true
				break
			}
		}
		if !reused {
			lm.LoadBase = p.nextBase
			stride := (span + isa.LayoutLibStride - 1) &^ (isa.LayoutLibStride - 1)
			if stride == 0 {
				stride = isa.LayoutLibStride
			}
			p.nextBase += stride
		}
	} else {
		lm.LoadBase = mod.Base
		// Fixed placement: refuse overlap with anything already loaded.
		for _, other := range p.Modules {
			if other.Contains(lm.RuntimeAddr(lo)) ||
				other.Contains(lm.RuntimeAddr(lo+span-1)) {
				return nil, fmt.Errorf(
					"loader: %s: fixed base %#x overlaps %s",
					mod.Name, mod.Base, other.Name)
			}
		}
	}

	// Place sections.
	for i := range mod.Sections {
		sec := &mod.Sections[i]
		if err := p.M.Mem.WriteBytes(lm.RuntimeAddr(sec.Addr), sec.Data); err != nil {
			return nil, fmt.Errorf("loader: %s: place %s: %w", mod.Name, sec.Name, err)
		}
	}

	// Apply relocations.
	for _, r := range mod.Relocs {
		where := lm.RuntimeAddr(r.Where)
		switch r.Kind {
		case obj.RelRebase:
			if !mod.PIC {
				continue
			}
			v, err := p.M.Mem.Read64(where)
			if err != nil {
				return nil, err
			}
			if err := p.M.Mem.Write64(where, v+lm.LoadBase); err != nil {
				return nil, err
			}
		case obj.RelGotFunc:
			if p.Lazy {
				// Leave the slot pointing at the lazy stub; for PIC
				// the embedded link-time stub address needs rebasing.
				if mod.PIC {
					v, err := p.M.Mem.Read64(where)
					if err != nil {
						return nil, err
					}
					if err := p.M.Mem.Write64(where, v+lm.LoadBase); err != nil {
						return nil, err
					}
				}
				continue
			}
			// Eager binding: the importing module itself is not yet in
			// p.Modules, so lookup covers dependencies only — matching
			// dependency-first symbol resolution.
			target, _, ok := p.ResolveSymbol(r.Sym)
			if !ok {
				return nil, fmt.Errorf("loader: %s: undefined symbol %q",
					mod.Name, r.Sym)
			}
			if err := p.M.Mem.Write64(where, target); err != nil {
				return nil, err
			}
		}
	}

	// No cached block can lie in the new image: its extent was never
	// mapped, or Unload flushed it when it was released.
	p.Modules = append(p.Modules, lm)
	p.byName[mod.Name] = lm
	for _, hook := range p.OnModuleLoad {
		hook(lm)
	}
	return lm, nil
}

// Unload removes a loaded module: hooks fire first (rule tables and
// translated code go with them), then the image is zeroed so stale code
// cannot execute, the machine's cached blocks in its extent are dropped,
// and a PIC module's base becomes reusable. Unloading a module
// other modules still import from leaves their bound GOT entries dangling —
// exactly the hazard real dlclose has; transfers to the zeroed image fault.
func (p *Process) Unload(name string) error {
	lm, ok := p.byName[name]
	if !ok {
		return fmt.Errorf("loader: unload %q: not loaded", name)
	}
	for _, hook := range p.OnModuleUnload {
		hook(lm)
	}
	zero := make([]byte, lm.span)
	if err := p.M.Mem.WriteBytes(lm.RuntimeAddr(lm.lo), zero); err != nil {
		return err
	}
	delete(p.byName, name)
	for i, other := range p.Modules {
		if other == lm {
			p.Modules = append(p.Modules[:i], p.Modules[i+1:]...)
			break
		}
	}
	if lm.PIC {
		p.freeBases = append(p.freeBases, lm.LoadBase)
	}
	start := lm.RuntimeAddr(lm.lo)
	p.M.Blocks().FlushRange(start, start+lm.span)
	return nil
}

// trapDlclose services dlclose(handle): r1 = module handle (load base).
// Returns 0 on success, -1 on failure in r0.
func (p *Process) trapDlclose(m *vm.Machine) error {
	lm := p.ModuleAt(m.Regs[isa.R1])
	if lm == nil {
		m.Regs[isa.R0] = ^uint64(0)
		return nil
	}
	if err := p.Unload(lm.Name); err != nil {
		m.Regs[isa.R0] = ^uint64(0)
		return nil
	}
	m.Regs[isa.R0] = 0
	return nil
}

// trapResolve services lazy PLT binding. r11 holds the import index; the
// faulting module is identified from the trap PC (which lies in its .plt).
func (p *Process) trapResolve(m *vm.Machine) error {
	lm := p.ModuleAt(m.TrapPC)
	if lm == nil {
		return &vm.Fault{PC: m.TrapPC, Kind: "resolve trap outside any module"}
	}
	idx := int(m.Regs[isa.R11])
	if idx < 0 || idx >= len(lm.Imports) {
		return &vm.Fault{PC: m.TrapPC,
			Kind: fmt.Sprintf("resolve trap: bad import index %d", idx)}
	}
	im := &lm.Imports[idx]
	target, _, ok := p.ResolveSymbol(im.Name)
	if !ok {
		return &vm.Fault{PC: m.TrapPC,
			Kind: fmt.Sprintf("unresolved symbol %q", im.Name)}
	}
	// Bind the GOT slot so subsequent calls go direct.
	if err := m.Mem.Write64(lm.RuntimeAddr(im.GOT), target); err != nil {
		return err
	}
	p.LazyResolutions++
	m.Regs[isa.R0] = target
	return nil
}

// trapDlopen services dlopen(name): r1=name pointer, r2=length.
// Returns the load base as the handle in r0 (0 on failure).
func (p *Process) trapDlopen(m *vm.Machine) error {
	buf := make([]byte, m.Regs[isa.R2])
	if err := m.Mem.ReadBytes(m.Regs[isa.R1], buf); err != nil {
		return err
	}
	lm, err := p.Dlopen(string(buf))
	if err != nil {
		m.Regs[isa.R0] = 0
		return nil
	}
	m.Regs[isa.R0] = lm.RuntimeAddr(lm.lo)
	return nil
}

// trapDlsym services dlsym(handle, name): r1=handle, r2=name ptr, r3=len.
func (p *Process) trapDlsym(m *vm.Machine) error {
	buf := make([]byte, m.Regs[isa.R3])
	if err := m.Mem.ReadBytes(m.Regs[isa.R2], buf); err != nil {
		return err
	}
	lm := p.ModuleAt(m.Regs[isa.R1])
	if lm == nil {
		m.Regs[isa.R0] = 0
		return nil
	}
	name := string(buf)
	for i := range lm.Symbols {
		s := &lm.Symbols[i]
		if s.Exported && s.Name == name {
			m.Regs[isa.R0] = lm.RuntimeAddr(s.Addr)
			return nil
		}
	}
	m.Regs[isa.R0] = 0
	return nil
}

// LddClosure returns root plus its transitive static dependencies in
// dependency-first order — what the `ldd` tool shows the static analyzer.
// Modules only reachable via dlopen are absent, which is precisely the
// static-coverage gap Janitizer's dynamic fallback closes.
func LddClosure(root *obj.Module, reg Registry) ([]*obj.Module, error) {
	var out []*obj.Module
	seen := map[string]bool{}
	var visit func(m *obj.Module) error
	visit = func(m *obj.Module) error {
		if seen[m.Name] {
			return nil
		}
		seen[m.Name] = true
		for _, dep := range m.Needed {
			d, ok := reg[dep]
			if !ok {
				return fmt.Errorf("loader: ldd: %s needs %q: not found", m.Name, dep)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		out = append(out, m)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return out, nil
}
