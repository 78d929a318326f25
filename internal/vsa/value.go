// Package vsa implements a flow-sensitive, interprocedural value-set
// analysis over JVA machine code: the proving side of Janitizer's hybrid
// static/dynamic contract. Every register value is abstracted as a strided
// interval over a symbolic base region — a pure integer, a link-time module
// address, or the entry value of a register (the stack pointer's entry value
// is the frame base F). A worklist fixpoint over cfg.Graph propagates these
// values through each function, refines them along conditional-branch edges,
// and summarises call effects per callee so -O2/ipa-ra code keeps facts
// across calls.
//
// Consumers never act on a guess: each elision or narrowing decision derived
// from the analysis is recorded as a serialisable Proof that cmd/jvet can
// replay against the module with a fresh analysis (see proof.go, verify.go).
package vsa

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Region is the symbolic base of an abstract value.
type Region uint8

// Value regions. The interval [Lo,Hi] is an offset from the region's base:
// zero for RConst (the value *is* the interval), the module load base for
// RLink, and the register's value at function entry for REntry. REntry with
// Sym == isa.SP is the frame base F (SP at function entry).
const (
	RBot   Region = iota // unreachable / no value
	RConst               // run-time integer in [Lo,Hi]
	RLink                // link-time module address + [Lo,Hi] (PIC: + load base)
	REntry               // entry value of register Sym + [Lo,Hi]
	RTop                 // unknown
)

func (r Region) String() string {
	switch r {
	case RBot:
		return "bot"
	case RConst:
		return "const"
	case RLink:
		return "link"
	case REntry:
		return "entry"
	case RTop:
		return "top"
	}
	return "?"
}

// Interval bound sentinels. A bound that reaches a sentinel (through
// widening or saturation) is treated as unbounded in that direction.
const (
	minBound = math.MinInt64
	maxBound = math.MaxInt64
)

// Value is one strided-interval abstract value: base region + inclusive
// offset interval + stride (0 means singleton or unknown-stride; a positive
// stride s means the concrete offset is Lo + k*s for some k ≥ 0).
type Value struct {
	Region Region
	Sym    isa.Register // for REntry: whose entry value
	Lo, Hi int64
	Stride int64
}

// Top returns the unknown value.
func Top() Value { return Value{Region: RTop} }

// Bot returns the unreachable value.
func Bot() Value { return Value{Region: RBot} }

// ConstV returns the singleton integer v.
func ConstV(v int64) Value { return Value{Region: RConst, Lo: v, Hi: v} }

// ConstRange returns the integer interval [lo,hi] with the given stride.
func ConstRange(lo, hi, stride int64) Value {
	return Value{Region: RConst, Lo: lo, Hi: hi, Stride: stride}
}

// EntryV returns the symbolic entry value of register r (offset 0).
func EntryV(r isa.Register) Value { return Value{Region: REntry, Sym: r} }

// LinkV returns the singleton link-time address a.
func LinkV(a uint64) Value { return Value{Region: RLink, Lo: int64(a), Hi: int64(a)} }

// IsFrame reports whether the value is frame-based: an offset from the
// function-entry stack pointer F.
func (v Value) IsFrame() bool { return v.Region == REntry && v.Sym == isa.SP }

// Singleton returns the single concrete offset and true when Lo == Hi and
// neither bound is a sentinel.
func (v Value) Singleton() (int64, bool) {
	if v.Region == RTop || v.Region == RBot || v.Lo != v.Hi ||
		v.Lo == minBound || v.Hi == maxBound {
		return 0, false
	}
	return v.Lo, true
}

// IsEntryOf reports whether v is exactly the entry value of register r.
func (v Value) IsEntryOf(r isa.Register) bool {
	return v.Region == REntry && v.Sym == r && v.Lo == 0 && v.Hi == 0
}

// Bounded reports whether both interval bounds are finite (non-sentinel).
func (v Value) Bounded() bool {
	return v.Region != RTop && v.Region != RBot &&
		v.Lo != minBound && v.Hi != maxBound
}

func (v Value) String() string {
	switch v.Region {
	case RBot:
		return "⊥"
	case RTop:
		return "⊤"
	case RConst:
		if v.Lo == v.Hi {
			return fmt.Sprintf("%d", v.Lo)
		}
		return fmt.Sprintf("[%d,%d]/%d", v.Lo, v.Hi, v.Stride)
	case RLink:
		if v.Lo == v.Hi {
			return fmt.Sprintf("link+%#x", uint64(v.Lo))
		}
		return fmt.Sprintf("link+[%#x,%#x]/%d", uint64(v.Lo), uint64(v.Hi), v.Stride)
	case REntry:
		if v.Lo == v.Hi {
			return fmt.Sprintf("%s0+%d", v.Sym, v.Lo)
		}
		return fmt.Sprintf("%s0+[%d,%d]/%d", v.Sym, v.Lo, v.Hi, v.Stride)
	}
	return "?"
}

// satAdd adds with saturation at the sentinels.
func satAdd(a, b int64) int64 {
	if a == minBound || b == minBound {
		if a == maxBound || b == maxBound {
			return maxBound // conflicting sentinels: give up upward
		}
		return minBound
	}
	if a == maxBound || b == maxBound {
		return maxBound
	}
	s := a + b
	if b > 0 && s < a {
		return maxBound
	}
	if b < 0 && s > a {
		return minBound
	}
	return s
}

// addBound adds two interval bounds. A sentinel operand keeps the sum
// unbounded in its direction, as satAdd does; two finite bounds whose sum
// leaves the int64 range report false. The machine wraps there, so a
// clamped bound would be a finite bound the run-time value does not obey.
func addBound(a, b int64) (int64, bool) {
	if a == minBound || a == maxBound || b == minBound || b == maxBound {
		return satAdd(a, b), true
	}
	s := a + b
	if b > 0 && s < a || b < 0 && s > a {
		return 0, false
	}
	return s, true
}

// negBound negates an interval bound: unbounded below becomes unbounded
// above and vice versa.
func negBound(a int64) int64 {
	switch a {
	case minBound:
		return maxBound
	case maxBound:
		return minBound
	}
	return -a
}

// mulBound scales an interval bound by k > 0, reporting false when a finite
// bound leaves the int64 range (see addBound).
func mulBound(a, k int64) (int64, bool) {
	if a == minBound || a == maxBound {
		return a, true
	}
	p := a * k
	if p/k != a {
		return 0, false
	}
	return p, true
}

// shifted returns v with the interval [v.Lo+lo, v.Hi+hi] and the given
// stride, or Top when a finite bound wraps.
func shifted(v Value, lo, hi, stride int64) Value {
	l, okLo := addBound(v.Lo, lo)
	h, okHi := addBound(v.Hi, hi)
	if !okLo || !okHi {
		return Top()
	}
	v.Lo, v.Hi, v.Stride = l, h, stride
	return v
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// joinStride computes the stride of the join of two intervals whose low
// bounds differ by d.
func joinStride(a, b, d int64) int64 {
	if d == minBound || d == maxBound {
		return 1
	}
	return gcd64(gcd64(a, b), d)
}

// Join returns the least upper bound of v and o.
func (v Value) Join(o Value) Value {
	if v.Region == RBot {
		return o
	}
	if o.Region == RBot {
		return v
	}
	if v.Region == RTop || o.Region == RTop {
		return Top()
	}
	if v.Region != o.Region || (v.Region == REntry && v.Sym != o.Sym) {
		return Top()
	}
	out := Value{Region: v.Region, Sym: v.Sym}
	out.Lo, out.Hi = v.Lo, v.Hi
	if o.Lo < out.Lo {
		out.Lo = o.Lo
	}
	if o.Hi > out.Hi {
		out.Hi = o.Hi
	}
	var d int64
	if v.Lo >= o.Lo {
		d = satAdd(v.Lo, -o.Lo)
	} else {
		d = satAdd(o.Lo, -v.Lo)
	}
	out.Stride = joinStride(v.Stride, o.Stride, d)
	return out
}

// Widen accelerates convergence: any bound that grew past prev jumps to its
// sentinel. Called in place of Join once a block has been visited often.
func (v Value) Widen(next Value) Value {
	j := v.Join(next)
	if j.Region != v.Region || (j.Region == REntry && j.Sym != v.Sym) {
		return j // region changed: already at Top or a fresh region
	}
	if j.Lo < v.Lo {
		j.Lo = minBound
	}
	if j.Hi > v.Hi {
		j.Hi = maxBound
	}
	return j
}

// Eq reports exact abstract equality.
func (v Value) Eq(o Value) bool {
	if v.Region != o.Region {
		return false
	}
	switch v.Region {
	case RBot, RTop:
		return true
	case REntry:
		return v.Sym == o.Sym && v.Lo == o.Lo && v.Hi == o.Hi && v.Stride == o.Stride
	default:
		return v.Lo == o.Lo && v.Hi == o.Hi && v.Stride == o.Stride
	}
}

// AddConst shifts the value by the constant c.
func (v Value) AddConst(c int64) Value {
	switch v.Region {
	case RBot, RTop:
		return v
	}
	return shifted(v, c, c, v.Stride)
}

// Add returns the abstract sum. Symbolic regions absorb constant intervals;
// two symbolic values have no common base and fall to Top.
func Add(a, b Value) Value {
	if a.Region == RBot || b.Region == RBot {
		return Bot()
	}
	if a.Region == RTop || b.Region == RTop {
		return Top()
	}
	if b.Region != RConst {
		a, b = b, a
	}
	if b.Region != RConst {
		return Top() // symbolic + symbolic
	}
	return shifted(a, b.Lo, b.Hi, gcd64(a.Stride, b.Stride))
}

// Sub returns the abstract difference a-b. Same-base symbolic values cancel
// to a constant interval.
func Sub(a, b Value) Value {
	if a.Region == RBot || b.Region == RBot {
		return Bot()
	}
	if a.Region == RTop || b.Region == RTop {
		return Top()
	}
	stride := gcd64(a.Stride, b.Stride)
	if b.Region == RConst {
		return shifted(a, negBound(b.Hi), negBound(b.Lo), stride)
	}
	if a.Region == b.Region && (a.Region != REntry || a.Sym == b.Sym) {
		return shifted(ConstRange(a.Lo, a.Hi, 0), negBound(b.Hi), negBound(b.Lo), stride)
	}
	return Top()
}

// MulConst scales the value by k ≥ 0. Only pure integers scale; scaling a
// symbolic base has no meaning and falls to Top (except the identities).
func (v Value) MulConst(k int64) Value {
	switch {
	case v.Region == RBot || v.Region == RTop:
		return v
	case k == 0:
		return ConstV(0)
	case k == 1:
		return v
	case v.Region != RConst || k < 0:
		return Top()
	}
	lo, okLo := mulBound(v.Lo, k)
	hi, okHi := mulBound(v.Hi, k)
	stride, okStride := mulBound(v.Stride, k)
	if !okLo || !okHi || !okStride {
		return Top()
	}
	return ConstRange(lo, hi, stride)
}

// AndImm masks with a non-negative immediate: whatever the input was, the
// result is a pure integer in [0, imm].
func (v Value) AndImm(imm int64) Value {
	if v.Region == RBot {
		return v
	}
	if imm < 0 {
		return Top()
	}
	if v.Region == RConst && v.Lo >= 0 && v.Hi <= imm {
		return v // already tighter
	}
	return ConstRange(0, imm, 1)
}

// ShrConst logically shifts right by k ≥ 1: the result fits in 64-k bits.
func (v Value) ShrConst(k int64) Value {
	if v.Region == RBot {
		return v
	}
	if k <= 0 {
		return v
	}
	if k >= 64 {
		return ConstV(0)
	}
	if v.Region == RConst && v.Lo >= 0 && v.Hi != maxBound {
		return ConstRange(v.Lo>>uint(k), v.Hi>>uint(k), 1)
	}
	return ConstRange(0, int64(^uint64(0)>>uint(k)), 1)
}

// Intersect clamps the value's interval to [lo,hi], returning false when the
// intersection is empty (the edge is infeasible). Only pure integers and Top
// participate: for Top the constraint bounds the run-time value directly.
func (v Value) Intersect(lo, hi int64) (Value, bool) {
	switch v.Region {
	case RBot:
		return v, false
	case RTop:
		return Value{Region: RConst, Lo: lo, Hi: hi, Stride: 1}, true
	case RConst:
		if lo > v.Lo {
			v.Lo = lo
		}
		if hi < v.Hi {
			v.Hi = hi
		}
		if v.Lo > v.Hi {
			return Bot(), false
		}
		return v, true
	}
	return v, true // symbolic: constraint not applicable, keep as-is
}
