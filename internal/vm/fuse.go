package vm

import (
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// checkLen is the length of the inline shadow-check idiom every sanitizer
// check is emitted as (jasan.EmitCheck, shadow.EmitBitmapCheck, and their
// replay in static copies):
//
//	lea|leaX|leaXB s1, <access address>
//	mov  s2, s1
//	shr  s2, k
//	add  s2, SHADOW_BASE
//	ldb|ldq s2, [s2+d]
//	test s2, s2
//	je   done
const checkLen = 7

// FuseChecks marks every index of code that starts the inline shadow-check
// idiom, so run retires the seven instructions in one step, and returns how
// many it marked. It marks only the emitters' own dataflow (lea.Rd = s1 =
// mov.Rb, s1 != s2, and s2 the destination and source of mov, shr, add, the
// load and test), only when all seven share Meta and CC, and only when no
// JumpTo in code lands inside the idiom. Run applies it to every block
// before caching it; code must not be shared with another machine.
func FuseChecks(code []CInstr) int {
	n := 0
	for i := range code {
		c := &code[i]
		c.fused = isAddr(c.In.Op) && i+checkLen <= len(code) && isCheck(code[i:i+checkLen])
		if c.fused {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	for i := range code {
		// A JumpTo t lands inside the idioms starting at t-6 .. t-1.
		t := min(int(code[i].JumpTo), len(code))
		for j := max(t-checkLen+1, 0); j < t; j++ {
			if code[j].fused {
				code[j].fused = false
				n--
			}
		}
	}
	return n
}

// isAddr reports whether op can start the idiom: it computes the checked
// address.
func isAddr(op isa.Op) bool {
	return op == isa.OpLea || op == isa.OpLeaX || op == isa.OpLeaXB
}

// isCheck reports whether k (checkLen instructions) is the check idiom.
func isCheck(k []CInstr) bool {
	lea, mov, shr, add, ld, test, je := &k[0].In, &k[1].In, &k[2].In,
		&k[3].In, &k[4].In, &k[5].In, &k[6].In
	if !isAddr(lea.Op) || mov.Op != isa.OpMovRR || shr.Op != isa.OpShrRI ||
		add.Op != isa.OpAddRI || (ld.Op != isa.OpLdB && ld.Op != isa.OpLdQ) ||
		test.Op != isa.OpTestRR || je.Op != isa.OpJe {
		return false
	}
	s1, s2 := lea.Rd, mov.Rd
	if mov.Rb != s1 || s1 == s2 || shr.Rd != s2 || add.Rd != s2 ||
		ld.Rd != s2 || ld.Rb != s2 || test.Rd != s2 || test.Rb != s2 {
		return false
	}
	for j := 1; j < checkLen; j++ {
		if k[j].Meta != k[0].Meta || k[j].CC != k[0].CC {
			return false
		}
	}
	return true
}

// retireCheck retires the check idiom FuseChecks marked at code[i] in one
// step, in place of executing its lea, which run has already counted from
// the cycle count before. It leaves exactly what run would by stepping the
// seven instructions: registers s1 and s2, the flags of test, PC, the
// instruction and cycle counters and the profile. It returns where run
// goes on: the index of the next instruction, or j < 0 to leave the block
// with exit as run's result (nil when execution fell off the end). When the
// budget cannot admit the other six instructions, or the shadow load would
// fault, it changes nothing and returns ok=false, so run steps through the
// idiom and a fault lands where it always did.
func (m *Machine) retireCheck(code []CInstr, i int, limit, before uint64,
	prof *telemetry.Profile) (j int, exit *CInstr, ok bool) {

	if m.Instrs+checkLen-1 > limit {
		return 0, nil, false
	}
	k := code[i : i+checkLen]
	r := &m.Regs
	lea, ld, je := &k[0].In, &k[4].In, &k[6].In
	s1 := leaAddr(r, lea)
	s2 := s1>>(uint64(k[2].In.Imm)&63) + uint64(k[3].In.Imm)
	a := s2 + uint64(int64(ld.Disp))
	var v uint64
	var err error
	if ld.Op == isa.OpLdB {
		var b byte
		b, err = m.Mem.ReadB(a)
		v = uint64(b)
	} else {
		v, err = m.Mem.Read64(a)
	}
	if err != nil {
		return 0, nil, false
	}
	r[lea.Rd] = s1
	r[ld.Rd] = m.logic(v)
	m.Instrs += checkLen - 1
	m.Cycles += opCost[k[1].In.Op] + opCost[k[2].In.Op] + opCost[k[3].In.Op] +
		opCost[ld.Op] + opCost[k[5].In.Op] + opCost[je.Op]
	if prof != nil {
		cc := telemetry.CCApp
		if k[0].Meta {
			cc = k[0].CC
		}
		prof.Charge(cc, m.Cycles-before, checkLen)
	}
	switch j := i + checkLen; {
	case v != 0:
		m.PC = je.Addr + uint64(je.Size)
		if j == len(code) {
			return -1, nil, true
		}
		return j, nil, true
	case k[6].JumpTo >= 0:
		m.PC = je.Target()
		return int(k[6].JumpTo), nil, true
	default:
		m.PC = je.Target()
		return -1, &k[6], true
	}
}
