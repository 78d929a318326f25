package cc

import (
	"strings"

	"repro/internal/isa"
)

// constFold evaluates a constant expression, if possible (always attempted:
// at -O0 it still folds literals, as real compilers do in initialisers; the
// O2 flag governs folding inside generated code).
func constFold(e *Expr) (int64, bool) {
	switch e.Kind {
	case ENum:
		return e.Num, true
	case EUnary:
		v, ok := constFold(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case EBinary:
		a, ok1 := constFold(e.X)
		b, ok2 := constFold(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if b != 0 {
				return a / b, true
			}
		case "%":
			if b != 0 {
				return a % b, true
			}
		case "&":
			return a & b, true
		case "|":
			return a | b, true
		case "^":
			return a ^ b, true
		case "<<":
			return a << (uint(b) & 63), true
		case ">>":
			return a >> (uint(b) & 63), true
		}
	}
	return 0, false
}

// genExpr evaluates e into a freshly allocated temp register and returns it
// with the expression's type.
func (g *gen) genExpr(e *Expr) (isa.Register, *Type) {
	if g.opts.O2 {
		if v, ok := constFold(e); ok && e.Kind != ENum {
			r := g.alloc(e.Line)
			g.emitRI(isa.OpMovRI, r, v)
			return r, IntType
		}
	}
	switch e.Kind {
	case ENum:
		r := g.alloc(e.Line)
		g.emitRI(isa.OpMovRI, r, e.Num)
		return r, IntType
	case EStr:
		r := g.alloc(e.Line)
		g.emitLa(r, g.strLabel(e.Str))
		return r, PtrTo(CharType)
	case EIdent:
		sym := g.lookup(e.Str, e.Line)
		r := g.alloc(e.Line)
		switch {
		case sym.fn:
			g.emitLa(r, sym.name) // function address (address-taken)
			return r, PtrTo(sym.typ)
		case sym.typ.Kind == TArray:
			// Arrays decay to pointers.
			if sym.global {
				g.emitLa(r, sym.name)
			} else {
				g.emitMem(isa.OpLea, r, isa.FP, sym.frameOff)
			}
			return r, PtrTo(sym.typ.Elem)
		case sym.global:
			g.emitLa(r, sym.name)
			g.loadScalar(r, r, 0, sym.typ)
			return r, sym.typ
		default:
			g.loadScalar(r, isa.FP, sym.frameOff, sym.typ)
			return r, sym.typ
		}
	case ECall:
		return g.genCall(e)
	case EBinary:
		return g.genBinary(e)
	case EUnary:
		return g.genUnary(e)
	case EAssign:
		return g.genAssign(e)
	case EIndex:
		addr, elem := g.genIndexAddr(e)
		if elem.Kind == TArray {
			// Multi-dimensional decay: the element is itself an array,
			// so the indexed value is its address.
			return addr, PtrTo(elem.Elem)
		}
		g.loadScalar(addr, addr, 0, elem)
		return addr, elem
	case EPostIncDec:
		// Result is the OLD value.
		addr, t := g.genAddr(e.X)
		old := g.alloc(e.Line)
		g.loadScalar(old, addr, 0, t)
		tmp := g.alloc(e.Line)
		g.emitRR(isa.OpMovRR, tmp, old)
		delta := int64(1)
		if t.Kind == TPtr {
			delta = t.Elem.Size()
		}
		if e.Op == "++" {
			g.emitRI(isa.OpAddRI, tmp, delta)
		} else {
			g.emitRI(isa.OpSubRI, tmp, delta)
		}
		g.storeScalar(addr, 0, tmp, t)
		g.free(tmp)
		// Move old value into addr's register slot to keep LIFO shape.
		g.emitRR(isa.OpMovRR, addr, old)
		g.free(old)
		return addr, t
	}
	g.errf(e.Line, "unsupported expression")
	return 0, nil
}

// loadScalar emits a typed load of [base+disp] into dst.
func (g *gen) loadScalar(dst, base isa.Register, disp int32, t *Type) {
	if t.Kind == TChar {
		g.emitMem(isa.OpLdB, dst, base, disp)
	} else {
		g.emitMem(isa.OpLdQ, dst, base, disp)
	}
}

// storeScalar emits a typed store of src to [base+disp].
func (g *gen) storeScalar(base isa.Register, disp int32, src isa.Register, t *Type) {
	if t.Kind == TChar {
		g.emitMem(isa.OpStB, src, base, disp)
	} else {
		g.emitMem(isa.OpStQ, src, base, disp)
	}
}

// genAddr evaluates e as an lvalue: returns a register holding its address
// and the value type.
func (g *gen) genAddr(e *Expr) (isa.Register, *Type) {
	switch e.Kind {
	case EIdent:
		sym := g.lookup(e.Str, e.Line)
		if sym.fn {
			g.errf(e.Line, "cannot assign to function %q", e.Str)
		}
		r := g.alloc(e.Line)
		if sym.global {
			g.emitLa(r, sym.name)
		} else {
			g.emitMem(isa.OpLea, r, isa.FP, sym.frameOff)
		}
		t := sym.typ
		if t.Kind == TArray {
			t = t.Elem // writing through a[i] handled by EIndex
		}
		return r, t
	case EUnary:
		if e.Op == "*" {
			r, t := g.genExpr(e.X)
			if t.Kind != TPtr {
				g.errf(e.Line, "dereference of non-pointer")
			}
			return r, t.Elem
		}
	case EIndex:
		return g.genIndexAddr(e)
	}
	g.errf(e.Line, "expression is not assignable")
	return 0, nil
}

// genIndexAddr computes &X[Y]; returns the address register and element
// type.
func (g *gen) genIndexAddr(e *Expr) (isa.Register, *Type) {
	base, bt := g.genExpr(e.X)
	if bt.Kind != TPtr {
		g.errf(e.Line, "indexing a non-pointer/array value")
	}
	elem := bt.Elem
	// Constant index folds into the displacement... via add.
	if v, ok := constFold(e.Y); ok {
		off := v * elem.Size()
		if off != 0 {
			g.emitRI(isa.OpAddRI, base, off)
		}
		return base, elem
	}
	idx, _ := g.genExpr(e.Y)
	switch elem.Size() {
	case 1:
		g.emitRR(isa.OpAddRR, base, idx)
	case 8:
		g.emitRI(isa.OpShlRI, idx, 3)
		g.emitRR(isa.OpAddRR, base, idx)
	default:
		g.emitRI(isa.OpMulRI, idx, elem.Size())
		g.emitRR(isa.OpAddRR, base, idx)
	}
	g.free(idx)
	return base, elem
}

// aluOps are the register and immediate forms of one binary operator.
// Division and remainder have no immediate form.
type aluOps struct{ rr, ri isa.Op }

var binInsn = map[string]aluOps{
	"+": {isa.OpAddRR, isa.OpAddRI}, "-": {isa.OpSubRR, isa.OpSubRI},
	"*": {isa.OpMulRR, isa.OpMulRI}, "/": {isa.OpDivRR, 0},
	"%": {isa.OpRemRR, 0}, "&": {isa.OpAndRR, isa.OpAndRI},
	"|": {isa.OpOrRR, isa.OpOrRI}, "^": {isa.OpXorRR, isa.OpXorRI},
	"<<": {isa.OpShlRR, isa.OpShlRI}, ">>": {isa.OpShrRR, isa.OpShrRI},
}

// genBinary evaluates arithmetic, comparisons and short-circuit logic as
// values.
func (g *gen) genBinary(e *Expr) (isa.Register, *Type) {
	if e.Op == "&&" || e.Op == "||" {
		r := g.alloc(e.Line)
		trueL := g.newLabel("bt")
		falseL := g.newLabel("bf")
		done := g.newLabel("bd")
		g.genCondJump(e, trueL, falseL)
		g.emitLabel(trueL)
		g.emitRI(isa.OpMovRI, r, 1)
		g.emitJump(isa.OpJmp, done)
		g.emitLabel(falseL)
		g.emitRI(isa.OpMovRI, r, 0)
		g.emitLabel(done)
		return r, IntType
	}
	if cc, ok := cmpOps[e.Op]; ok {
		rx, _ := g.genExpr(e.X)
		ry, _ := g.genExpr(e.Y)
		g.emitRR(isa.OpCmpRR, rx, ry)
		g.free(ry)
		trueL := g.newLabel("ct")
		done := g.newLabel("cd")
		g.emitJump(cc, trueL)
		g.emitRI(isa.OpMovRI, rx, 0)
		g.emitJump(isa.OpJmp, done)
		g.emitLabel(trueL)
		g.emitRI(isa.OpMovRI, rx, 1)
		g.emitLabel(done)
		return rx, IntType
	}
	insn, ok := binInsn[e.Op]
	if !ok {
		g.errf(e.Line, "unsupported operator %q", e.Op)
	}
	rx, tx := g.genExpr(e.X)
	// Pointer arithmetic scaling with a constant operand avoids a temp.
	if tx.Kind == TPtr && (e.Op == "+" || e.Op == "-") {
		if v, ok := constFold(e.Y); ok {
			off := v * tx.Elem.Size()
			g.emitRI(insn.ri, rx, off)
			return rx, tx
		}
	}
	// div/rem have no immediate form; other ops fold constant operands.
	if v, ok := constFold(e.Y); ok && tx.Kind != TPtr &&
		e.Op != "/" && e.Op != "%" {
		g.emitRI(insn.ri, rx, v)
		return rx, tx
	}
	ry, ty := g.genExpr(e.Y)
	if tx.Kind == TPtr && (e.Op == "+" || e.Op == "-") && ty.Kind != TPtr {
		if tx.Elem.Size() == 8 {
			g.emitRI(isa.OpShlRI, ry, 3)
		} else if tx.Elem.Size() != 1 {
			g.emitRI(isa.OpMulRI, ry, tx.Elem.Size())
		}
	}
	g.emitRR(insn.rr, rx, ry)
	g.free(ry)
	t := tx
	if tx.Kind == TPtr && ty != nil && ty.Kind == TPtr && e.Op == "-" {
		t = IntType // pointer difference (unscaled; our code divides manually)
	}
	return rx, t
}

// genUnary evaluates -, ~, !, * and &.
func (g *gen) genUnary(e *Expr) (isa.Register, *Type) {
	switch e.Op {
	case "-":
		r, t := g.genExpr(e.X)
		g.emitR(isa.OpNeg, r)
		return r, t
	case "~":
		r, t := g.genExpr(e.X)
		g.emitR(isa.OpNot, r)
		return r, t
	case "!":
		r, _ := g.genExpr(e.X)
		trueL := g.newLabel("nt")
		done := g.newLabel("nd")
		g.emitRI(isa.OpCmpRI, r, 0)
		g.emitJump(isa.OpJe, trueL)
		g.emitRI(isa.OpMovRI, r, 0)
		g.emitJump(isa.OpJmp, done)
		g.emitLabel(trueL)
		g.emitRI(isa.OpMovRI, r, 1)
		g.emitLabel(done)
		return r, IntType
	case "*":
		r, t := g.genExpr(e.X)
		if t.Kind != TPtr {
			g.errf(e.Line, "dereference of non-pointer")
		}
		if t.Elem.Kind == TFunc {
			return r, t // dereferencing a function pointer is a no-op
		}
		g.loadScalar(r, r, 0, t.Elem)
		return r, t.Elem
	case "&":
		r, t := g.genAddr(e.X)
		return r, PtrTo(t)
	}
	g.errf(e.Line, "unsupported unary operator %q", e.Op)
	return 0, nil
}

// genAssign handles = and compound assignments; the result value is the
// stored value.
func (g *gen) genAssign(e *Expr) (isa.Register, *Type) {
	// Simple variable fast path avoids materialising the address.
	if e.X.Kind == EIdent {
		sym := g.lookup(e.X.Str, e.Line)
		if !sym.global && !sym.fn && sym.typ.IsScalar() {
			rv := g.rhsValue(e, isa.FP, sym.frameOff, sym.typ)
			g.storeScalar(isa.FP, sym.frameOff, rv, sym.typ)
			return rv, sym.typ
		}
	}
	addr, t := g.genAddr(e.X)
	rv := g.rhsValue(e, addr, 0, t)
	g.storeScalar(addr, 0, rv, t)
	// Keep LIFO: move the value into the address register and free the
	// value register.
	g.emitRR(isa.OpMovRR, addr, rv)
	g.free(rv)
	return addr, t
}

// rhsValue computes the value to store for an assignment: the RHS for "=",
// or current-value OP rhs for compound forms.
func (g *gen) rhsValue(e *Expr, base isa.Register, disp int32, t *Type) isa.Register {
	if e.Op == "=" {
		r, _ := g.genExpr(e.Y)
		return r
	}
	op := strings.TrimSuffix(e.Op, "=")
	insn, ok := binInsn[op]
	if !ok {
		g.errf(e.Line, "unsupported compound assignment %q", e.Op)
	}
	cur := g.alloc(e.Line)
	g.loadScalar(cur, base, disp, t)
	if v, ok := constFold(e.Y); ok && op != "/" && op != "%" {
		delta := v
		if t.Kind == TPtr && (op == "+" || op == "-") {
			delta = v * t.Elem.Size()
		}
		g.emitRI(insn.ri, cur, delta)
		return cur
	}
	rv, _ := g.genExpr(e.Y)
	if t.Kind == TPtr && (op == "+" || op == "-") && t.Elem.Size() != 1 {
		if t.Elem.Size() == 8 {
			g.emitRI(isa.OpShlRI, rv, 3)
		} else {
			g.emitRI(isa.OpMulRI, rv, t.Elem.Size())
		}
	}
	g.emitRR(insn.rr, cur, rv)
	g.free(rv)
	return cur
}

// genCall evaluates a call. Direct calls go straight to the symbol (or PLT
// for imports); calls through expressions become calli.
func (g *gen) genCall(e *Expr) (isa.Register, *Type) {
	if len(e.Args) > 5 {
		g.errf(e.Line, "more than 5 arguments unsupported")
	}
	// Identify direct callees.
	direct := ""
	var resultT *Type = IntType
	callee := e.X
	if callee.Kind == EIdent {
		sym := g.lookup(callee.Str, e.Line)
		if sym.fn {
			direct = sym.name
			if sym.typ.Result != nil {
				resultT = sym.typ.Result
			}
		}
	}

	// Evaluate arguments into temps (LIFO).
	var argRegs []isa.Register
	for _, a := range e.Args {
		r, _ := g.genExpr(a)
		argRegs = append(argRegs, r)
	}
	var target isa.Register
	if direct == "" {
		t, ty := g.genExpr(callee)
		target = t
		if ty.Kind == TPtr && ty.Elem.Kind == TFunc && ty.Elem.Result != nil {
			resultT = ty.Elem.Result
		}
		argRegs = append(argRegs, t)
	}

	// Save the temp registers that stay live below the arg window —
	// everything currently allocated is consumed by this call, but outer
	// expressions may hold earlier temps. Those are tempRegs[0:depthBase]
	// where depthBase = g.depth - len(argRegs). Under ipa-ra, each spill
	// around a direct call is recorded, and the ones the callee's
	// transitive extent provably never clobbers are deleted before the
	// unit is linked — the §4.1.2 calling-convention break.
	depthBase := g.depth - len(argRegs)
	saved := tempRegs[:depthBase]
	for _, r := range saved {
		g.ra.spill(g.text.Len(), direct, r)
		g.emitR(isa.OpPush, r)
	}
	// Marshal arguments. Args currently occupy tempRegs[depthBase...];
	// moving lowest-first into r1.. is safe because tempRegs start at r6.
	for i := range e.Args {
		g.emitRR(isa.OpMovRR, isa.Register(i+1), argRegs[i])
	}
	if direct != "" {
		g.emitJump(isa.OpCall, direct)
	} else {
		g.emitR(isa.OpCallI, target)
	}
	// Free the argument temps and re-acquire a result register.
	for i := len(argRegs) - 1; i >= 0; i-- {
		g.free(argRegs[i])
	}
	res := g.alloc(e.Line)
	g.emitRR(isa.OpMovRR, res, isa.R0)
	for i := len(saved) - 1; i >= 0; i-- {
		g.ra.spill(g.text.Len(), direct, saved[i])
		g.emitR(isa.OpPop, saved[i])
	}
	return res, resultT
}
