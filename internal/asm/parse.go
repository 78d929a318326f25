package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/obj"
)

// Assemble assembles one source file into a JEF module: it parses the text
// into a Unit and links that.
func Assemble(src string) (*obj.Module, error) {
	u, err := parse(src)
	if err != nil {
		return nil, err
	}
	return u.Link()
}

// parser holds the text front end's state.
type parser struct {
	u   *Unit
	cur *Section
}

// parse fills a unit from assembly source.
func parse(src string) (*Unit, error) {
	p := &parser{u: NewUnit()}
	for line := 1; src != ""; line++ {
		raw, rest, _ := strings.Cut(src, "\n")
		src = rest
		p.u.line = line
		if err := p.parseLine(raw); err != nil {
			return nil, err
		}
	}
	return p.u, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &Error{Line: p.u.line, Msg: fmt.Sprintf(format, args...)}
}

// text returns the current section; labels and instructions before any
// .section go to .text.
func (p *parser) text() *Section {
	if p.cur == nil {
		p.cur = p.u.Section(".text")
	}
	return p.cur
}

// parseLine handles one source line.
func (p *parser) parseLine(raw string) error {
	line := stripComment(raw)
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}
	// Label definitions may share a line with an instruction.
	for {
		idx := labelEnd(line)
		if idx < 0 {
			break
		}
		p.text().Label(line[:idx])
		line = strings.TrimSpace(line[idx+1:])
		if line == "" {
			return nil
		}
	}
	if strings.HasPrefix(line, ".") {
		return p.parseDirective(line)
	}
	return p.parseInstr(line)
}

// labelEnd returns the index of the ':' terminating a leading label, or -1.
func labelEnd(line string) int {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == ':' {
			if i == 0 {
				return -1
			}
			return i
		}
		if !isIdentChar(c) && !(i == 0 && c == '.') && c != '.' {
			return -1
		}
	}
	return -1
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '\\':
			if inStr {
				i++
			}
		case ';', '#':
			if !inStr {
				return line[:i]
			}
		case '/':
			if !inStr && i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
		}
	}
	return line
}

// parseDirective handles lines beginning with '.'.
func (p *parser) parseDirective(line string) error {
	u := p.u
	word, rest := splitWord(line)
	rest = strings.TrimSpace(rest)
	switch word {
	case ".module":
		u.Name = rest
		return nil
	case ".type":
		switch rest {
		case "exec":
			u.Type = obj.Exec
		case "shared":
			u.Type = obj.SharedObj
		default:
			return p.errf(".type: want exec or shared, got %q", rest)
		}
		return nil
	case ".pic":
		u.PIC = true
		return nil
	case ".base":
		v, err := parseInt(rest)
		if err != nil {
			return p.errf(".base: %v", err)
		}
		u.Base = uint64(v)
		return nil
	case ".entry":
		u.Entry = rest
		return nil
	case ".needs":
		u.Needs = append(u.Needs, rest)
		return nil
	case ".import":
		u.Imports = append(u.Imports, rest)
		return nil
	case ".global":
		u.Globals = append(u.Globals, rest)
		return nil
	case ".strip":
		switch rest {
		case "full":
			u.Strip = obj.SymFull
		case "exports":
			u.Strip = obj.SymExports
		case "stripped":
			u.Strip = obj.SymStripped
		default:
			return p.errf(".strip: want full, exports or stripped, got %q", rest)
		}
		return nil
	case ".section":
		p.cur = u.Section(rest)
		return nil
	}
	// The remaining directives lay out data in the current section.
	switch word {
	case ".quad", ".long", ".byte", ".ascii", ".asciz", ".zero", ".align":
		if p.cur == nil {
			return p.errf("%s outside section", word)
		}
	default:
		return p.errf("unknown directive %s", word)
	}
	s := p.cur
	switch word {
	case ".quad", ".long":
		for _, f := range splitOperands(rest) {
			sym, addend, err := parseSymExpr(f)
			if err != nil {
				return p.errf("%s: %v", word, err)
			}
			if word == ".quad" {
				s.Quad(sym, addend)
			} else {
				s.Long(sym, addend)
			}
		}
	case ".byte":
		var bs []byte
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return p.errf(".byte: %v", err)
			}
			bs = append(bs, byte(v))
		}
		s.Bytes(bs)
	case ".ascii", ".asciz":
		str, err := strconv.Unquote(rest)
		if err != nil {
			return p.errf("%s: bad string %s: %v", word, rest, err)
		}
		if word == ".asciz" {
			s.Asciz(str)
		} else {
			s.Ascii(str)
		}
	case ".zero":
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return p.errf(".zero: bad count %q", rest)
		}
		s.Zero(n)
	case ".align":
		n, err := parseInt(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return p.errf(".align: bad boundary %q", rest)
		}
		s.Align(n)
	}
	return nil
}

func splitWord(s string) (string, string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i+1:]
}

// splitOperands splits on commas not inside brackets or strings.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" {
		out = append(out, last)
	}
	return out
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty integer")
	}
	return strconv.ParseInt(s, 0, 64)
}

// parseSymExpr parses `42`, `sym` or `sym+8` / `sym-8`.
func parseSymExpr(s string) (sym string, addend int64, err error) {
	s = strings.TrimSpace(s)
	if v, e := parseInt(s); e == nil {
		return "", v, nil
	}
	// find +/- splitting symbol and addend (not leading)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			v, e := parseInt(s[i:])
			if e != nil {
				return "", 0, fmt.Errorf("bad addend in %q", s)
			}
			return s[:i], v, nil
		}
	}
	if !isIdentStart(s) {
		return "", 0, fmt.Errorf("bad expression %q", s)
	}
	return s, 0, nil
}

func isIdentStart(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func parseReg(s string) (isa.Register, bool) {
	switch s {
	case "sp":
		return isa.SP, true
	case "fp":
		return isa.FP, true
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Register(n), true
		}
	}
	return 0, false
}

// operand is a parsed instruction operand.
type operand struct {
	kind opKind
	reg  isa.Register
	ri   isa.Register
	rb   isa.Register
	val  int64  // immediate or displacement
	sym  string // symbol reference
}

type opKind uint8

const (
	opReg  opKind = iota // r3
	opImm                // 42
	opMem                // [rb+disp]
	opMemX               // [rb+ri(*8)+disp]
	opPC                 // [pc+disp]
	opSym                // label
)

// parseOperand classifies one operand string.
func parseOperand(s string) (operand, error) {
	s = strings.TrimSpace(s)
	if r, ok := parseReg(s); ok {
		return operand{kind: opReg, reg: r}, nil
	}
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return operand{}, fmt.Errorf("unterminated memory operand %q", s)
		}
		return parseMem(s[1 : len(s)-1])
	}
	if v, err := parseInt(s); err == nil {
		return operand{kind: opImm, val: v}, nil
	}
	if isIdentStart(s) {
		sym, addend, err := parseSymExpr(s)
		if err != nil {
			return operand{}, err
		}
		return operand{kind: opSym, sym: sym, val: addend}, nil
	}
	return operand{}, fmt.Errorf("bad operand %q", s)
}

// parseMem parses the inside of [...]: rb, rb+disp, rb-disp, rb+ri,
// rb+ri*8, rb+ri+disp, rb+ri*8+disp, pc+disp. A pc-relative symbol is
// written as the bare operand (ldpc rd, sym): the [pc+disp] form has no
// relocation, so a symbol inside it would assemble to the numeric part.
func parseMem(s string) (operand, error) {
	parts := splitAddExpr(s)
	if len(parts) == 0 {
		return operand{}, fmt.Errorf("empty memory operand")
	}
	op := operand{kind: opMem}
	first := strings.TrimSpace(parts[0])
	if first == "pc" {
		op.kind = opPC
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			v, err := parseInt(p)
			if err != nil {
				if name := strings.TrimPrefix(p, "+"); isIdentStart(name) {
					return operand{}, fmt.Errorf("symbol %q inside [pc…]: write it as the operand (ldpc/leapc rd, %s)", name, name)
				}
				return operand{}, fmt.Errorf("bad pc-relative term %q", p)
			}
			op.val += v
		}
		return op, nil
	}
	rb, ok := parseReg(first)
	if !ok {
		return operand{}, fmt.Errorf("bad base register %q", first)
	}
	op.rb = rb
	seenIndex := false
	for _, p := range parts[1:] {
		p = strings.TrimSpace(p)
		// Index register term: "+ri" or "+ri*8" (scale is implied by the
		// mnemonic's access width, so "*8" is accepted documentation).
		t := strings.TrimSuffix(strings.TrimPrefix(p, "+"), "*8")
		if r, ok := parseReg(t); ok {
			if seenIndex {
				return operand{}, fmt.Errorf("two index registers in %q", s)
			}
			seenIndex = true
			op.kind = opMemX
			op.ri = r
			continue
		}
		v, err := parseInt(p)
		if err != nil {
			return operand{}, fmt.Errorf("bad memory term %q", p)
		}
		op.val += v
	}
	return op, nil
}

// splitAddExpr splits "a+b-c" into ["a", "+b", "-c"] keeping signs.
func splitAddExpr(s string) []string {
	var out []string
	start := 0
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			out = append(out, s[start:i])
			start = i
		}
	}
	out = append(out, s[start:])
	return out
}

// mnemonics maps each mnemonic to its opcodes in table order; the operand
// shape picks among them (mov rd, rs or mov rd, imm).
var mnemonics = func() map[string][]isa.Op {
	m := map[string][]isa.Op{}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		m[op.String()] = append(m[op.String()], op)
	}
	return m
}()

// parseInstr parses one instruction line and appends it to the current
// section.
func (p *parser) parseInstr(line string) error {
	mn, rest := splitWord(line)
	var ops []operand
	for _, f := range splitOperands(rest) {
		op, err := parseOperand(f)
		if err != nil {
			return p.errf("%s: %v", mn, err)
		}
		ops = append(ops, op)
	}
	s := p.text()
	if mn == "la" {
		if len(ops) != 2 || ops[0].kind != opReg || asSym(ops[1]).kind != opSym {
			return p.errf("%s: unsupported operand combination", mn)
		}
		t := asSym(ops[1])
		s.La(ops[0].reg, t.sym, t.val)
		return nil
	}
	cands, ok := mnemonics[mn]
	if !ok {
		return p.errf("unknown mnemonic %q", mn)
	}
	for _, op := range cands {
		if appendInstr(s, op, ops) {
			return nil
		}
	}
	return p.errf("%s: unsupported operand combination", mn)
}

// asSym reinterprets an operand in a symbol-only position: names that
// happen to look like registers (a function called "fp", say) are symbols
// there.
func asSym(op operand) operand {
	if op.kind == opReg {
		return operand{kind: opSym, sym: op.reg.String()}
	}
	return op
}

// appendInstr appends op with the operands ops to s, laid out by op's
// encoding form, and reports whether the operands fit that form.
func appendInstr(s *Section, op isa.Op, ops []operand) bool {
	o := op.Info()
	in := isa.Instr{Op: op}
	shape := func(kinds ...opKind) bool {
		if len(ops) != len(kinds) {
			return false
		}
		for i, k := range kinds {
			if ops[i].kind != k {
				return false
			}
		}
		return true
	}
	switch o.Form {
	case isa.FormNone:
		if !shape() {
			return false
		}
	case isa.FormR:
		if !shape(opReg) {
			return false
		}
		in.Rd = ops[0].reg
	case isa.FormRR:
		if !shape(opReg, opReg) {
			return false
		}
		in.Rd, in.Rb = ops[0].reg, ops[1].reg
	case isa.FormRI64, isa.FormRI32:
		if !shape(opReg, opImm) {
			return false
		}
		in.Rd, in.Imm = ops[0].reg, ops[1].val
	case isa.FormImm:
		if !shape(opImm) {
			return false
		}
		in.Imm = ops[0].val
	case isa.FormMem, isa.FormMemX:
		mem := opMem
		if o.Form == isa.FormMemX {
			mem = opMemX
		}
		reg, m := 0, 1 // a load or lea: rd, [mem]
		if o.Mem == isa.MemStore {
			reg, m = 1, 0 // a store: [mem], rs
		}
		if len(ops) != 2 || ops[reg].kind != opReg || ops[m].kind != mem {
			return false
		}
		in.Rd, in.Rb, in.Ri, in.Disp = ops[reg].reg, ops[m].rb, ops[m].ri, int32(ops[m].val)
	case isa.FormPC:
		if len(ops) != 2 || ops[0].kind != opReg {
			return false
		}
		if ops[1].kind != opPC {
			t := asSym(ops[1])
			if t.kind != opSym {
				return false
			}
			s.Ref(op, ops[0].reg, t.sym, t.val)
			return true
		}
		in.Rd, in.Disp = ops[0].reg, int32(ops[1].val)
	case isa.FormBr:
		if len(ops) != 1 || asSym(ops[0]).kind != opSym {
			return false
		}
		t := asSym(ops[0])
		s.Ref(op, 0, t.sym, t.val)
		return true
	}
	s.Instr(in)
	return true
}
