package cc

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libj"
	"repro/internal/obj"
	"repro/internal/telemetry"
)

// Options configures a compilation, mirroring the gcc flags the paper's
// setup uses.
type Options struct {
	// Module is the output soname (required).
	Module string
	// Shared produces a shared object instead of an executable.
	Shared bool
	// PIC produces position-independent code (implied by Shared).
	PIC bool
	// O2 enables optimisations: constant folding, jump tables for dense
	// switches.
	O2 bool
	// NoCanary disables the stack protector (enabled by default for
	// functions with address-exposed frames, like -fstack-protector).
	NoCanary bool
	// Base is the link base for non-PIC modules (default LayoutExecBase).
	Base uint64
	// EntryName overrides the start symbol's target function ("main").
	EntryName string
	// NoRuntime omits the _start shim and libj linkage (for shared
	// objects that define only exported functions).
	NoRuntime bool
	// NoIPARA disables the -O2 ipa-ra caller-save elision (useful for
	// isolating its effect; see internal/analysis.ReliedUpon).
	NoIPARA bool
}

// CompileError is a semantic diagnostic.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string { return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg) }

// Compile compiles MiniC source into a JEF module.
func Compile(src string, opts Options) (*obj.Module, error) {
	sp := telemetry.StartSpan("cc.compile", telemetry.String("module", opts.Module))
	defer sp.End()
	_, mod, err := compile(sp, src, opts)
	return mod, err
}

// GenAsm compiles MiniC source to JVA assembly text: it prints the
// assembler unit Compile links.
func GenAsm(src string, opts Options) (string, error) {
	sp := telemetry.StartSpan("cc.genasm", telemetry.String("module", opts.Module))
	defer sp.End()
	u, _, err := compile(sp, src, opts)
	if err != nil {
		return "", err
	}
	return u.Text(), nil
}

// compile generates src's code into an assembler unit once, deletes the
// spills ipa-ra proves dead from it, and links it.
func compile(sp *telemetry.Span, src string, opts Options) (*asm.Unit, *obj.Module, error) {
	u, ra, err := codegen(sp, src, opts)
	if err != nil {
		return nil, nil, err
	}
	if dead := ra.dead(); len(dead) > 0 {
		u.Section(".text").Delete(dead)
	}
	asp := sp.Child("cc.assemble")
	defer asp.End()
	mod, err := u.Link()
	if err != nil {
		// A program error codegen does not catch: a name defined twice,
		// or data past the end of the address space.
		return nil, nil, fmt.Errorf("cc: %w", err)
	}
	return u, mod, nil
}

// codegen parses src and generates its code into an assembler unit in one
// pass. At -O2 it also returns what it recorded for ipa-ra.
func codegen(sp *telemetry.Span, src string, opts Options) (*asm.Unit, *ipara, error) {
	psp := sp.Child("cc.parse")
	prog, err := Parse(src)
	psp.End()
	if err != nil {
		return nil, nil, err
	}
	if opts.Module == "" {
		return nil, nil, fmt.Errorf("cc: missing module name")
	}
	if opts.Shared {
		opts.PIC = true
	}
	if opts.Base == 0 {
		opts.Base = isa.LayoutExecBase
	}
	if opts.EntryName == "" {
		opts.EntryName = "main"
	}
	g := &gen{prog: prog, opts: opts, globals: map[string]*symbol{}}
	if opts.O2 && !opts.NoIPARA {
		g.ra = &ipara{funcs: make([]fnFacts, 0, len(prog.Funcs)+1)}
	}
	gsp := sp.Child("cc.codegen")
	defer gsp.End()
	if err := g.run(); err != nil {
		return nil, nil, err
	}
	return g.u, g.ra, nil
}

// tempRegs is the expression-evaluation register stack.
var tempRegs = []isa.Register{isa.R6, isa.R7, isa.R8, isa.R9, isa.R10, isa.R11}

// gen holds code-generation state.
type gen struct {
	prog *Program
	opts Options

	u    *asm.Unit
	text *asm.Section // .text
	ro   *asm.Section // .rodata, declared on first use
	data *asm.Section // .data, declared on first use

	globals map[string]*symbol
	imports map[string]bool
	strs    map[string]string // literal -> label
	label   int
	ra      *ipara // what ipa-ra needs; nil unless it applies

	// per-function state
	fn        *FuncDecl
	scopes    []map[string]*symbol
	frameSize int64
	nextSlot  int64
	hasCanary bool
	depth     int // temp registers in use
	breakLbl  []string
	contLbl   []string
	retLbl    string
}

func (g *gen) errf(line int, format string, args ...interface{}) error {
	panic(&CompileError{Line: line, Msg: fmt.Sprintf(format, args...)})
}

// run drives whole-program emission into g.u.
func (g *gen) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*CompileError); ok {
				err = ce
				return
			}
			panic(r)
		}
	}()
	g.imports = map[string]bool{}
	g.strs = map[string]string{}
	g.u = asm.NewUnit()
	g.text = g.u.Section(".text")
	withRuntime := !g.opts.Shared && !g.opts.NoRuntime
	if withRuntime {
		// _start: call main; exit(result)
		g.ra.begin("_start")
		g.emitLabel("_start")
		g.emitJump(isa.OpCall, g.opts.EntryName)
		g.emitRR(isa.OpMovRR, isa.R1, isa.R0)
		g.emitJump(isa.OpCall, "exit")
		g.emit(isa.Instr{Op: isa.OpHlt})
	}

	// A name defined twice is an error at the later definition.
	defLine := map[string]int{}
	define := func(name string, line int) {
		if prev, ok := defLine[name]; ok {
			g.errf(max(prev, line), "redefinition of %s (first defined on line %d)",
				name, min(prev, line))
		}
		defLine[name] = line
	}
	for _, f := range g.prog.Funcs {
		define(f.Name, f.Line)
	}
	for _, d := range g.prog.Globals {
		define(d.Name, d.Line)
	}

	// Register global symbols first (mutual recursion, fn pointers).
	for _, f := range g.prog.Funcs {
		var params []*Type
		for _, p := range f.Params {
			params = append(params, p.Type)
		}
		g.globals[f.Name] = &symbol{
			name: f.Name, fn: true, global: true,
			typ: &Type{Kind: TFunc, Params: params, Result: f.Result},
		}
	}
	for name, t := range g.prog.Externs {
		if _, ok := g.globals[name]; !ok {
			g.globals[name] = &symbol{name: name, fn: true, global: true, typ: t}
			// A prototype without a local definition resolves at link
			// time: import it.
			g.imports[name] = true
		}
	}
	for _, d := range g.prog.Globals {
		g.globals[d.Name] = &symbol{name: d.Name, global: true, typ: d.Type}
		g.emitGlobal(d)
	}
	for _, f := range g.prog.Funcs {
		g.emitFunc(f)
	}

	u := g.u
	u.Name = g.opts.Module
	if g.opts.Shared {
		u.Type = obj.SharedObj
	}
	u.PIC = g.opts.PIC
	u.Base = g.opts.Base
	needLibj := len(g.imports) > 0
	if withRuntime {
		u.Entry = "_start"
		needLibj = true
		g.imports["exit"] = true
	}
	if needLibj {
		u.Needs = []string{libj.Name}
	}
	// Imports sorted: the PLT/GOT layout follows import order, and the
	// compiled module must be byte-identical across runs (content hashes
	// key the analysis cache).
	for name := range g.imports {
		u.Imports = append(u.Imports, name)
	}
	sort.Strings(u.Imports)
	// Exports: non-static functions.
	for _, f := range g.prog.Funcs {
		if !f.Static {
			u.Globals = append(u.Globals, f.Name)
		}
	}
	return nil
}

// newLabel returns a fresh assembly-local label.
func (g *gen) newLabel(stem string) string {
	g.label++
	return ".L" + stem + strconv.Itoa(g.label)
}

// rodata returns .rodata, declaring it on first use: a unit without
// read-only data prints no .rodata section.
func (g *gen) rodata() *asm.Section {
	if g.ro == nil {
		g.ro = g.u.Section(".rodata")
	}
	return g.ro
}

// strLabel interns a string literal in .rodata.
func (g *gen) strLabel(s string) string {
	if l, ok := g.strs[s]; ok {
		return l
	}
	l := g.newLabel("str")
	g.strs[s] = l
	ro := g.rodata()
	ro.Label(l)
	ro.Asciz(s)
	return l
}

// emitGlobal lays out one global in .data.
func (g *gen) emitGlobal(d *VarDecl) {
	if g.data == nil {
		g.data = g.u.Section(".data")
	}
	w := g.data
	w.Align(8)
	w.Label(d.Name)
	t, size := d.Type, g.size(d.Type, d.Line)
	switch {
	case d.InitStr != "" && t.Kind == TArray && t.Elem.Kind == TChar:
		w.Ascii(d.InitStr)
		if pad := size - int64(len(d.InitStr)); pad > 0 {
			w.Zero(pad)
		}
	case len(d.InitList) > 0:
		for _, e := range d.InitList {
			switch {
			case e.Kind == ENum:
				w.Quad("", e.Num)
			case e.Kind == EIdent:
				w.Quad(e.Str, 0)
			case e.Kind == EUnary && e.Op == "&" && e.X.Kind == EIdent:
				w.Quad(e.X.Str, 0)
			case e.Kind == EStr:
				w.Quad(g.strLabel(e.Str), 0)
			default:
				g.errf(d.Line, "global initialiser for %s must be constant", d.Name)
			}
		}
		if pad := size - int64(len(d.InitList))*8; pad > 0 && t.Kind == TArray {
			w.Zero(pad)
		}
	case d.Init != nil:
		if v, ok := constFold(d.Init); ok {
			w.Quad("", v)
			break
		}
		// Address constants: a function or global name (optionally via &).
		switch {
		case d.Init.Kind == EIdent:
			w.Quad(d.Init.Str, 0)
		case d.Init.Kind == EUnary && d.Init.Op == "&" && d.Init.X.Kind == EIdent:
			w.Quad(d.Init.X.Str, 0)
		default:
			g.errf(d.Line, "global initialiser for %s must be constant", d.Name)
		}
	default:
		w.Zero(max(size, 8))
	}
}

// frameHasArrays reports whether any local is an array (stack-protector
// trigger, like -fstack-protector).
func frameHasArrays(body []*Stmt) bool {
	for _, s := range body {
		switch s.Kind {
		case SDecl:
			if s.Decl.Type.Kind == TArray {
				return true
			}
		case SBlock, SIf, SWhile, SDoWhile, SFor:
			if frameHasArrays(s.Body) || frameHasArrays(s.Else) {
				return true
			}
			if s.Init != nil && s.Init.Kind == SDecl && s.Init.Decl.Type.Kind == TArray {
				return true
			}
		case SSwitch:
			for _, c := range s.Cases {
				if frameHasArrays(c.Body) {
					return true
				}
			}
		}
	}
	return false
}

// countFrame sums the slot bytes needed by all declarations in a body.
func countFrame(body []*Stmt) int64 {
	var n int64
	for _, s := range body {
		switch s.Kind {
		case SDecl:
			n += align8(s.Decl.Type.Size())
		case SBlock, SIf, SWhile, SDoWhile, SFor:
			n += countFrame(s.Body) + countFrame(s.Else)
			if s.Init != nil {
				n += countFrame([]*Stmt{s.Init})
			}
		case SSwitch:
			for _, c := range s.Cases {
				n += countFrame(c.Body)
			}
		}
	}
	return n
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// maxFrame bounds a frame's slots: each must lie within the int32
// displacement of an fp-relative access.
const maxFrame = math.MaxInt32

// size returns the size in bytes of a value of type t declared at line,
// failing if it overflows.
func (g *gen) size(t *Type, line int) int64 {
	if t.Kind != TArray {
		return t.Size()
	}
	es := g.size(t.Elem, line)
	if es > 0 && t.ArrayLen > math.MaxInt64/es {
		g.errf(line, "array %s is too large: its size overflows", t)
	}
	return t.ArrayLen * es
}

// slot reserves the next frame slot for a value of type t declared at line
// and returns its offset from fp, failing if the frame outgrows maxFrame.
func (g *gen) slot(t *Type, line int) int32 {
	n := g.size(t, line)
	if n > maxFrame || g.nextSlot+align8(n) > maxFrame {
		g.errf(line, "frame of %s is larger than %d bytes", g.fn.Name, maxFrame)
	}
	g.nextSlot += align8(n)
	return int32(-g.nextSlot)
}

// Emission helpers: each appends one item to .text. The three that append
// instructions record them for ipa-ra.

func (g *gen) emit(in isa.Instr) {
	g.ra.instr(&in)
	g.text.Instr(in)
}

func (g *gen) emitLabel(l string) { g.text.Label(l) }

// emitR emits a one-register instruction: push, pop, neg, not, ldg, jmpi,
// calli.
func (g *gen) emitR(op isa.Op, rd isa.Register) { g.emit(isa.Instr{Op: op, Rd: rd}) }

func (g *gen) emitRR(op isa.Op, rd, rb isa.Register) {
	g.emit(isa.Instr{Op: op, Rd: rd, Rb: rb})
}

func (g *gen) emitRI(op isa.Op, rd isa.Register, imm int64) {
	g.emit(isa.Instr{Op: op, Rd: rd, Imm: imm})
}

// emitMem emits a load or lea of [rb+disp] into rd, or a store of rd to
// [rb+disp].
func (g *gen) emitMem(op isa.Op, rd, rb isa.Register, disp int32) {
	g.emit(isa.Instr{Op: op, Rd: rd, Rb: rb, Disp: disp})
}

// emitJump emits a direct branch or call to sym.
func (g *gen) emitJump(op isa.Op, sym string) {
	g.ra.transfer(sym)
	g.text.Ref(op, 0, sym, 0)
}

// emitLa materialises the address of sym in rd. ipa-ra records it as the
// mov la becomes outside PIC: both forms write rd alone.
func (g *gen) emitLa(rd isa.Register, sym string) {
	g.ra.instr(&isa.Instr{Op: isa.OpMovRI, Rd: rd})
	g.text.La(rd, sym, 0)
}

// alloc takes the next temp register.
func (g *gen) alloc(line int) isa.Register {
	if g.depth >= len(tempRegs) {
		g.errf(line, "expression too deep (more than %d live temporaries)", len(tempRegs))
	}
	r := tempRegs[g.depth]
	g.depth++
	return r
}

// free releases the most recently allocated temps down to r.
func (g *gen) free(r isa.Register) {
	for g.depth > 0 && tempRegs[g.depth-1] != r {
		g.depth--
	}
	if g.depth > 0 {
		g.depth--
	}
}

// emitFunc generates one function.
func (g *gen) emitFunc(f *FuncDecl) {
	if len(f.Params) > 5 {
		g.errf(f.Line, "%s: more than 5 parameters unsupported", f.Name)
	}
	g.fn = f
	g.scopes = []map[string]*symbol{{}}
	g.depth = 0
	g.retLbl = g.newLabel("ret")
	g.hasCanary = !g.opts.NoCanary && frameHasArrays(f.Body)

	// Frame layout: [fp-8] canary (if any), then parameter spill slots,
	// then locals.
	g.nextSlot = 0
	if g.hasCanary {
		g.nextSlot = 8
	}
	var paramSyms []*symbol
	for _, p := range f.Params {
		sym := &symbol{name: p.Name, typ: p.Type, frameOff: g.slot(p.Type, f.Line)}
		g.scopes[0][p.Name] = sym
		paramSyms = append(paramSyms, sym)
	}
	g.frameSize = g.nextSlot + countFrame(f.Body)
	g.frameSize = (g.frameSize + 15) &^ 15

	g.ra.begin(f.Name)
	g.emitLabel(f.Name)
	g.emitR(isa.OpPush, isa.FP)
	g.emitRR(isa.OpMovRR, isa.FP, isa.SP)
	if g.frameSize > 0 {
		g.emitRI(isa.OpSubRI, isa.SP, g.frameSize)
	}
	if g.hasCanary {
		g.emitR(isa.OpLdG, isa.R6)
		g.emitMem(isa.OpStQ, isa.R6, isa.FP, -8)
	}
	for i, sym := range paramSyms {
		if sym.typ.Kind == TChar {
			g.emitMem(isa.OpStB, isa.Register(i+1), isa.FP, sym.frameOff)
		} else {
			g.emitMem(isa.OpStQ, isa.Register(i+1), isa.FP, sym.frameOff)
		}
	}
	for _, s := range f.Body {
		g.genStmt(s)
	}
	// Implicit return 0.
	g.emitRI(isa.OpMovRI, isa.R0, 0)
	g.emitLabel(g.retLbl)
	if g.hasCanary {
		fail := g.newLabel("chkfail")
		g.emitMem(isa.OpLdQ, isa.R6, isa.FP, -8)
		g.emitR(isa.OpLdG, isa.R7)
		g.emitRR(isa.OpCmpRR, isa.R6, isa.R7)
		g.emitJump(isa.OpJne, fail)
		g.emitRR(isa.OpMovRR, isa.SP, isa.FP)
		g.emitR(isa.OpPop, isa.FP)
		g.emit(isa.Instr{Op: isa.OpRet})
		g.emitLabel(fail)
		g.emit(isa.Instr{Op: isa.OpHlt})
	} else {
		g.emitRR(isa.OpMovRR, isa.SP, isa.FP)
		g.emitR(isa.OpPop, isa.FP)
		g.emit(isa.Instr{Op: isa.OpRet})
	}
}

// lookup resolves a name through the scope stack, then globals, then
// implicit libj imports.
func (g *gen) lookup(name string, line int) *symbol {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if s, ok := g.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := g.globals[name]; ok {
		return s
	}
	if libjExports[name] {
		g.imports[name] = true
		s := &symbol{name: name, fn: true, global: true,
			typ: &Type{Kind: TFunc, Result: IntType}}
		g.globals[name] = s
		return s
	}
	g.errf(line, "undefined name %q", name)
	return nil
}

// libjExports lists functions resolvable from the runtime library.
var libjExports = map[string]bool{
	"malloc": true, "free": true, "memcpy": true, "memset": true,
	"strlen": true, "strcpy": true, "qsort": true, "rand": true,
	"srand": true, "puts": true, "puti": true, "exit": true,
	"apply_table": true, "dlopen": true, "dlsym": true, "dlclose": true,
	"_jinit": true, "clobber_counter": true,
}

// genStmt generates one statement.
func (g *gen) genStmt(s *Stmt) {
	switch s.Kind {
	case SExpr:
		r, _ := g.genExpr(s.Expr)
		g.free(r)
	case SDecl:
		g.genDecl(s.Decl)
	case SBlock:
		g.scopes = append(g.scopes, map[string]*symbol{})
		for _, st := range s.Body {
			g.genStmt(st)
		}
		g.scopes = g.scopes[:len(g.scopes)-1]
	case SIf:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		g.genCondJump(s.Expr, "", elseL)
		g.genBlockScoped(s.Body)
		if len(s.Else) > 0 {
			g.emitJump(isa.OpJmp, endL)
		}
		g.emitLabel(elseL)
		if len(s.Else) > 0 {
			g.genBlockScoped(s.Else)
			g.emitLabel(endL)
		}
	case SWhile:
		head := g.newLabel("while")
		end := g.newLabel("wend")
		g.emitLabel(head)
		g.genCondJump(s.Expr, "", end)
		g.pushLoop(end, head)
		g.genBlockScoped(s.Body)
		g.popLoop()
		g.emitJump(isa.OpJmp, head)
		g.emitLabel(end)
	case SDoWhile:
		head := g.newLabel("do")
		cont := g.newLabel("docond")
		end := g.newLabel("doend")
		g.emitLabel(head)
		g.pushLoop(end, cont)
		g.genBlockScoped(s.Body)
		g.popLoop()
		g.emitLabel(cont)
		g.genCondJump(s.Expr, head, "")
		g.emitLabel(end)
	case SFor:
		g.scopes = append(g.scopes, map[string]*symbol{})
		if s.Init != nil {
			g.genStmt(s.Init)
		}
		head := g.newLabel("for")
		cont := g.newLabel("fpost")
		end := g.newLabel("fend")
		g.emitLabel(head)
		if s.Expr != nil {
			g.genCondJump(s.Expr, "", end)
		}
		g.pushLoop(end, cont)
		for _, st := range s.Body {
			g.genStmt(st)
		}
		g.popLoop()
		g.emitLabel(cont)
		if s.Post != nil {
			r, _ := g.genExpr(s.Post)
			g.free(r)
		}
		g.emitJump(isa.OpJmp, head)
		g.emitLabel(end)
		g.scopes = g.scopes[:len(g.scopes)-1]
	case SReturn:
		if s.Expr != nil {
			// Tail-call optimisation at -O2: `return f(args);` becomes a
			// frame teardown followed by a jump — the pattern the paper's
			// jump policy caters for ("entry addresses of functions
			// within the same module"). Indirect tail calls become jmpi,
			// exercising the CFI jump-check's function-entry clause.
			if g.opts.O2 && s.Expr.Kind == ECall && g.depth == 0 &&
				g.tryTailCall(s.Expr) {
				return
			}
			r, _ := g.genExpr(s.Expr)
			g.emitRR(isa.OpMovRR, isa.R0, r)
			g.free(r)
		}
		g.emitJump(isa.OpJmp, g.retLbl)
	case SBreak:
		if len(g.breakLbl) == 0 {
			g.errf(s.Line, "break outside loop/switch")
		}
		g.emitJump(isa.OpJmp, g.breakLbl[len(g.breakLbl)-1])
	case SContinue:
		if len(g.contLbl) == 0 {
			g.errf(s.Line, "continue outside loop")
		}
		g.emitJump(isa.OpJmp, g.contLbl[len(g.contLbl)-1])
	case SSwitch:
		g.genSwitch(s)
	}
}

func (g *gen) genBlockScoped(body []*Stmt) {
	g.scopes = append(g.scopes, map[string]*symbol{})
	for _, st := range body {
		g.genStmt(st)
	}
	g.scopes = g.scopes[:len(g.scopes)-1]
}

func (g *gen) pushLoop(brk, cont string) {
	g.breakLbl = append(g.breakLbl, brk)
	g.contLbl = append(g.contLbl, cont)
}

func (g *gen) popLoop() {
	g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
	g.contLbl = g.contLbl[:len(g.contLbl)-1]
}

// genDecl allocates and initialises a local.
func (g *gen) genDecl(d *VarDecl) {
	sym := &symbol{name: d.Name, typ: d.Type, frameOff: g.slot(d.Type, d.Line)}
	g.scopes[len(g.scopes)-1][d.Name] = sym
	if d.Init != nil {
		r, _ := g.genExpr(d.Init)
		if d.Type.Kind == TChar {
			g.emitMem(isa.OpStB, r, isa.FP, sym.frameOff)
		} else {
			g.emitMem(isa.OpStQ, r, isa.FP, sym.frameOff)
		}
		g.free(r)
	}
	if d.InitStr != "" {
		// char buf[N] = "..." — copy from .rodata.
		l := g.strLabel(d.InitStr)
		src := g.alloc(d.Line)
		g.emitLa(src, l)
		dst := g.alloc(d.Line)
		g.emitMem(isa.OpLea, dst, isa.FP, sym.frameOff)
		idx := g.alloc(d.Line)
		g.emitRI(isa.OpMovRI, idx, 0)
		loop := g.newLabel("initcp")
		g.emitLabel(loop)
		tmp := g.alloc(d.Line)
		g.emit(isa.Instr{Op: isa.OpLdXB, Rd: tmp, Rb: src, Ri: idx})
		g.emit(isa.Instr{Op: isa.OpStXB, Rd: tmp, Rb: dst, Ri: idx})
		g.emitRI(isa.OpAddRI, idx, 1)
		g.emitRI(isa.OpCmpRI, idx, int64(len(d.InitStr)+1))
		g.emitJump(isa.OpJl, loop)
		g.free(src)
	}
}

// genCondJump evaluates e as a condition: jumps to trueL when true (if
// non-empty) and/or falseL when false (if non-empty); falls through in the
// remaining case.
func (g *gen) genCondJump(e *Expr, trueL, falseL string) {
	// Short-circuit forms.
	if e.Kind == EBinary && e.Op == "&&" {
		mid := falseL
		if mid == "" {
			mid = g.newLabel("andf")
		}
		g.genCondJump(e.X, "", mid)
		g.genCondJump(e.Y, trueL, falseL)
		if falseL == "" {
			g.emitLabel(mid)
		}
		return
	}
	if e.Kind == EBinary && e.Op == "||" {
		mid := trueL
		if mid == "" {
			mid = g.newLabel("ort")
		}
		g.genCondJump(e.X, mid, "")
		g.genCondJump(e.Y, trueL, falseL)
		if trueL == "" {
			g.emitLabel(mid)
		}
		return
	}
	if e.Kind == EUnary && e.Op == "!" {
		g.genCondJump(e.X, falseL, trueL)
		return
	}
	// Comparison: emit cmp + conditional jump directly.
	if e.Kind == EBinary {
		if cc, ok := cmpOps[e.Op]; ok {
			rx, _ := g.genExpr(e.X)
			ry, _ := g.genExpr(e.Y)
			g.emitRR(isa.OpCmpRR, rx, ry)
			g.free(ry)
			g.free(rx)
			if trueL != "" {
				g.emitJump(cc, trueL)
				if falseL != "" {
					g.emitJump(isa.OpJmp, falseL)
				}
			} else {
				g.emitJump(negCC[cc], falseL)
			}
			return
		}
	}
	// General value: test against zero.
	r, _ := g.genExpr(e)
	g.emitRI(isa.OpCmpRI, r, 0)
	g.free(r)
	if trueL != "" {
		g.emitJump(isa.OpJne, trueL)
		if falseL != "" {
			g.emitJump(isa.OpJmp, falseL)
		}
	} else {
		g.emitJump(isa.OpJe, falseL)
	}
}

var cmpOps = map[string]isa.Op{
	"==": isa.OpJe, "!=": isa.OpJne, "<": isa.OpJl, "<=": isa.OpJle,
	">": isa.OpJg, ">=": isa.OpJge,
}

var negCC = map[isa.Op]isa.Op{
	isa.OpJe: isa.OpJne, isa.OpJne: isa.OpJe, isa.OpJl: isa.OpJge,
	isa.OpJle: isa.OpJg, isa.OpJg: isa.OpJle, isa.OpJge: isa.OpJl,
	isa.OpJb: isa.OpJae, isa.OpJae: isa.OpJb,
}

// genSwitch lowers a switch: dense value sets at -O2 become jump tables
// (cmp/jae bound check, table load, jmpi), matching the shape the static
// analyzer's jump-table matcher recovers; otherwise a compare chain.
func (g *gen) genSwitch(s *Stmt) {
	subj, _ := g.genExpr(s.Expr)
	end := g.newLabel("swend")
	g.breakLbl = append(g.breakLbl, end)

	// Collect labelled cases.
	type arm struct {
		label string
		c     *SwitchCase
	}
	var arms []arm
	defaultL := end
	minV, maxV := int64(1<<62), int64(-1<<62)
	numVals := 0
	for _, c := range s.Cases {
		a := arm{label: g.newLabel("case"), c: c}
		arms = append(arms, a)
		if c.Vals == nil {
			defaultL = a.label
			continue
		}
		for _, v := range c.Vals {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
			numVals++
		}
	}

	span := maxV - minV + 1
	dense := g.opts.O2 && numVals >= 4 && span <= 3*int64(numVals) && span <= 512
	if dense {
		// Jump table.
		tbl := g.newLabel("jt")
		idx := g.alloc(s.Line)
		g.emitRR(isa.OpMovRR, idx, subj)
		if minV != 0 {
			g.emitRI(isa.OpSubRI, idx, minV)
		}
		g.emitRI(isa.OpCmpRI, idx, span)
		g.emitJump(isa.OpJae, defaultL)
		base := g.alloc(s.Line)
		g.emitLa(base, tbl)
		tgt := g.alloc(s.Line)
		g.emit(isa.Instr{Op: isa.OpLdXQ, Rd: tgt, Rb: base, Ri: idx})
		g.emitR(isa.OpJmpI, tgt)
		g.free(idx)
		// Table entries in .rodata.
		entries := make([]string, span)
		for i := range entries {
			entries[i] = defaultL
		}
		for _, a := range arms {
			for _, v := range a.c.Vals {
				entries[v-minV] = a.label
			}
		}
		ro := g.rodata()
		ro.Label(tbl)
		for _, e := range entries {
			ro.Quad(e, 0)
		}
	} else {
		for _, a := range arms {
			for _, v := range a.c.Vals {
				g.emitRI(isa.OpCmpRI, subj, v)
				g.emitJump(isa.OpJe, a.label)
			}
		}
		g.emitJump(isa.OpJmp, defaultL)
	}
	g.free(subj)

	// Bodies in order (C fallthrough).
	for _, a := range arms {
		g.emitLabel(a.label)
		g.genBlockScoped(a.c.Body)
	}
	g.emitLabel(end)
	g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
}

// tryTailCall emits `return callee(args)` as a tail jump when the call
// shape allows it; it reports whether it did. The canary check (when
// present) runs before the frame is torn down. Calls whose arguments may
// carry addresses of the caller's frame cannot be tail-called: the frame is
// gone when the callee dereferences them.
func (g *gen) tryTailCall(e *Expr) bool {
	if len(e.Args) > 5 {
		return false
	}
	for _, a := range e.Args {
		if g.exprMayEscapeFrame(a) {
			return false
		}
	}
	if g.exprMayEscapeFrame(e.X) {
		return false
	}
	// Identify the callee: direct (known function or import) or a value.
	direct := ""
	callee := e.X
	if callee.Kind == EIdent {
		if sym := g.lookup(callee.Str, e.Line); sym.fn {
			direct = sym.name
		}
	}
	// Evaluate arguments (they may reference locals, so this happens
	// before the frame goes away).
	var argRegs []isa.Register
	for _, a := range e.Args {
		r, _ := g.genExpr(a)
		argRegs = append(argRegs, r)
	}
	var target isa.Register
	if direct == "" {
		target, _ = g.genExpr(callee)
	}
	for i := range e.Args {
		g.emitRR(isa.OpMovRR, isa.Register(i+1), argRegs[i])
	}
	// Canary verification must happen before leaving the frame.
	if g.hasCanary {
		fail := g.newLabel("tcchk")
		ok := g.newLabel("tcok")
		g.emitMem(isa.OpLdQ, isa.R0, isa.FP, -8)
		g.emitR(isa.OpLdG, isa.R11)
		g.emitRR(isa.OpCmpRR, isa.R0, isa.R11)
		g.emitJump(isa.OpJe, ok)
		g.emitLabel(fail)
		g.emit(isa.Instr{Op: isa.OpHlt})
		g.emitLabel(ok)
	}
	g.emitRR(isa.OpMovRR, isa.SP, isa.FP)
	g.emitR(isa.OpPop, isa.FP)
	if direct != "" {
		g.emitJump(isa.OpJmp, direct)
	} else {
		g.emitR(isa.OpJmpI, target)
	}
	// Reset temp accounting (the statement consumed everything).
	g.depth = 0
	return true
}

// exprMayEscapeFrame conservatively reports whether evaluating e can yield
// an address inside the current stack frame (local arrays decaying to
// pointers, &local, or any value loaded through such an address).
func (g *gen) exprMayEscapeFrame(e *Expr) bool {
	if e == nil {
		return false
	}
	switch e.Kind {
	case EIdent:
		for i := len(g.scopes) - 1; i >= 0; i-- {
			if sym, ok := g.scopes[i][e.Str]; ok {
				// A local of array type decays to a frame address; a
				// local pointer may hold one (assigned from &buf
				// earlier), so treat pointer-typed locals as escaping
				// too.
				return sym.typ.Kind == TArray || sym.typ.Kind == TPtr
			}
		}
		return false
	case EUnary:
		if e.Op == "&" {
			return true
		}
		return g.exprMayEscapeFrame(e.X)
	case EBinary, EAssign, EIndex:
		return g.exprMayEscapeFrame(e.X) || g.exprMayEscapeFrame(e.Y)
	case ECall:
		// The callee's RESULT is an int; only its argument expressions
		// could smuggle frame addresses onward, and the inner call
		// completes before the tail transfer, so results are safe.
		return false
	case EPostIncDec:
		return g.exprMayEscapeFrame(e.X)
	}
	return false
}
