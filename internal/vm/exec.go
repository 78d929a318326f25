package vm

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// RelocKind tags an instruction whose immediate is position-dependent. The
// executor never consults it — code it runs was emitted against run-time
// addresses and is correct as-is — but the static rewriting backend
// (internal/rewrite) replays the same emission into a relocated copy of the
// code and must know which immediates to rematerialise there.
type RelocKind uint8

const (
	// RelocNone marks position-independent code (the default).
	RelocNone RelocKind = iota
	// RelocRetAddr marks a meta MovRI whose immediate is the return
	// address of the anchor call instruction (the shadow-stack push).
	// A static copy must substitute the copy's own fall-through address.
	RelocRetAddr
)

// CInstr is one instruction in executor form: an application instruction,
// or a meta instruction a dynamic-modifier client inserted.
type CInstr struct {
	In isa.Instr
	// JumpTo, for meta branch instructions, is the index inside the
	// block's Code to continue at when the branch is taken. -1 selects
	// application semantics (the branch leaves the block).
	JumpTo int32
	// Meta marks inserted instrumentation (for statistics; meta
	// instructions still execute on the machine and cost cycles).
	Meta bool
	// CC is the cost center the instruction's cycles are charged to when
	// a telemetry profile is attached. Only meaningful on meta
	// instructions (application instructions always charge CCApp); the
	// zero value is telemetry.CCOther, so untagged meta code stays
	// accounted for.
	CC telemetry.CostCenter
	// Reloc marks a position-dependent meta immediate (see RelocKind).
	Reloc RelocKind

	// fused marks the first instruction of a shadow-check idiom that run
	// retires in one step (see FuseChecks).
	fused bool
}

// Block is one straight-line run of code in executor form, cached under
// the application address it was decoded from. The machine's one block
// cache holds native blocks and the dynamic modifier's translations alike;
// a translation also carries the meta instructions its client inserted
// and the Modifier that accounts for it.
type Block struct {
	// Start is the application (run-time) address the block was built
	// from.
	Start uint64
	// AppLen is the number of application instructions.
	AppLen int
	// Code is the instruction sequence the executor runs.
	Code []CInstr
	// Execs counts executions of this block.
	Execs uint64
	// Mod is the dynamic modifier that translated the block, or nil for a
	// native block, which pays no dispatch cost.
	Mod *Modifier

	// links are the direct successor links (see BlockCache).
	links [2]blockLink
}

// DispatchCounts counts the dispatches of a modifier's blocks. Every
// dispatch is a cache hit or a translation, so
// BlockExecs == CacheHits + the modifier's build count.
type DispatchCounts struct {
	BlockExecs       uint64
	CacheHits        uint64
	IndirectDispatch uint64
}

// Modifier is what Run charges when it dispatches a translated block: its
// counters, the cost of an indirect exit (the indirect-branch lookup of a
// real DBT) and the profile the block's cycles are attributed to.
type Modifier struct {
	Counts       *DispatchCounts
	IndirectCost uint64
	Prof         *telemetry.Profile
}

type blockLink struct {
	pc uint64
	to *Block
}

// BlockCache maps block start addresses to blocks. Every dispatch also
// links the previously dispatched block to the new one under the new
// block's start address, so a transition seen before is served from the
// predecessor's two links without a map lookup — the host side of the
// block linking the cycle model already treats as free. A link is only a
// shortcut: it always leads to the block the map holds for its address.
type BlockCache struct {
	blocks map[uint64]*Block
	last   *Block // the block dispatched last
}

// Dispatch returns the cached block starting at pc, or nil, and records it
// as the block dispatched last.
func (c *BlockCache) Dispatch(pc uint64) *Block {
	if l := c.last; l != nil {
		if k := &l.links[0]; k.pc == pc && k.to != nil {
			c.last = k.to
			return k.to
		}
		if k := &l.links[1]; k.pc == pc && k.to != nil {
			c.last = k.to
			return k.to
		}
	}
	b := c.blocks[pc]
	if b != nil {
		c.enter(b)
	}
	return b
}

// Add caches b and dispatches it.
func (c *BlockCache) Add(b *Block) {
	if c.blocks == nil {
		c.blocks = map[uint64]*Block{}
	}
	c.blocks[b.Start] = b
	c.enter(b)
}

// enter links the block dispatched last to b, evicting its older link,
// and makes b the block dispatched last.
func (c *BlockCache) enter(b *Block) {
	if l := c.last; l != nil {
		l.links[1] = l.links[0]
		l.links[0] = blockLink{b.Start, b}
	}
	c.last = b
}

// Get returns the cached block starting at pc, or nil, without
// dispatching it.
func (c *BlockCache) Get(pc uint64) *Block { return c.blocks[pc] }

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int { return len(c.blocks) }

// Blocks returns the cached blocks keyed by start address.
func (c *BlockCache) Blocks() map[uint64]*Block { return c.blocks }

// Flush drops every block and returns how many there were.
func (c *BlockCache) Flush() int {
	n := len(c.blocks)
	c.blocks = nil
	c.last = nil
	return n
}

// FlushRange drops the blocks whose start address lies in [lo, hi) and
// returns how many there were. When any went, surviving blocks lose their
// links, which may lead to a dropped block.
func (c *BlockCache) FlushRange(lo, hi uint64) int {
	n := 0
	for addr := range c.blocks {
		if addr >= lo && addr < hi {
			delete(c.blocks, addr)
			n++
		}
	}
	if n > 0 {
		for _, b := range c.blocks {
			b.links = [2]blockLink{}
		}
		c.last = nil
	}
	return n
}

// opCost is Costs as a table indexed by opcode.
var opCost = func() (t [256]uint64) {
	for op := range t {
		t[op] = instrCost(isa.Op(op))
	}
	return t
}()

// Exec executes one decoded instruction and updates PC, registers, flags,
// memory and cycle counters. For branches it returns taken=true when control
// actually transferred. The instruction's Addr/Size fields must reflect its
// application address — the dynamic modifier relies on this so that return
// addresses, PC-relative accesses and fall-through targets keep application
// semantics even when the instruction executes from a code cache.
func (m *Machine) Exec(in *isa.Instr) (taken bool, err error) {
	code := [1]CInstr{{In: *in, JumpTo: -1}}
	exit, err := m.run(code[:], nil)
	return exit != nil, err
}

// run executes code from its first instruction until control leaves it:
// the one switch over opcodes that every native, modified and rewritten
// instruction retires through. Taken meta branches with a JumpTo continue
// inside the code; any other taken transfer leaves it with m.PC holding the
// next application address, and run returns the transferring instruction.
// It returns nil when execution fell off the end or the machine halted
// without a transfer.
//
// With prof attached, each instruction's cycle delta — including any
// cycles its trap handler adds — is charged to its cost center.
//
// A shadow check FuseChecks marked retires in one step at its lea when the
// budget admits all seven of its instructions; otherwise, or when its
// shadow load would fault, it steps through the switch like any other code.
func (m *Machine) run(code []CInstr, prof *telemetry.Profile) (*CInstr, error) {
	r := &m.Regs
	limit := m.MaxInstrs
	if limit == 0 {
		limit = math.MaxUint64
	}
	for i := 0; ; {
		c := &code[i]
		in := &c.In
		before := m.Cycles
		m.Instrs++
		m.Cycles += opCost[in.Op]
		var err error
		taken := false
		next := in.Addr + uint64(in.Size)
		if m.Instrs > limit {
			err = &Fault{PC: in.Addr, Kind: FaultBudget}
			goto retired
		}

		switch in.Op {
		case isa.OpMovRI:
			r[in.Rd] = uint64(in.Imm)
		case isa.OpMovRR:
			r[in.Rd] = r[in.Rb]
		case isa.OpLdQ:
			r[in.Rd], err = m.Mem.Read64(ea(r, in))
		case isa.OpStQ:
			err = m.Mem.Write64(ea(r, in), r[in.Rd])
		case isa.OpLdB:
			var b byte
			if b, err = m.Mem.ReadB(ea(r, in)); err == nil {
				r[in.Rd] = uint64(b)
			}
		case isa.OpStB:
			err = m.Mem.WriteB(ea(r, in), byte(r[in.Rd]))
		case isa.OpLdXQ:
			r[in.Rd], err = m.Mem.Read64(eax8(r, in))
		case isa.OpStXQ:
			err = m.Mem.Write64(eax8(r, in), r[in.Rd])
		case isa.OpLdXB:
			var b byte
			if b, err = m.Mem.ReadB(eax1(r, in)); err == nil {
				r[in.Rd] = uint64(b)
			}
		case isa.OpStXB:
			err = m.Mem.WriteB(eax1(r, in), byte(r[in.Rd]))
		case isa.OpLea, isa.OpLeaX, isa.OpLeaXB:
			if c.fused {
				if j, exit, ok := m.retireCheck(code, i, limit, before, prof); ok {
					if j < 0 {
						return exit, nil
					}
					i = j
					continue
				}
			}
			r[in.Rd] = leaAddr(r, in)
		case isa.OpLdPC:
			r[in.Rd], err = m.Mem.Read64(next + uint64(int64(in.Disp)))
		case isa.OpLeaPC:
			r[in.Rd] = next + uint64(int64(in.Disp))
		case isa.OpLdG:
			r[in.Rd] = m.Canary

		case isa.OpAddRR:
			r[in.Rd] = m.add(r[in.Rd], r[in.Rb])
		case isa.OpAddRI:
			r[in.Rd] = m.add(r[in.Rd], uint64(in.Imm))
		case isa.OpSubRR:
			r[in.Rd] = m.sub(r[in.Rd], r[in.Rb])
		case isa.OpSubRI:
			r[in.Rd] = m.sub(r[in.Rd], uint64(in.Imm))
		case isa.OpCmpRR:
			m.sub(r[in.Rd], r[in.Rb])
		case isa.OpCmpRI:
			m.sub(r[in.Rd], uint64(in.Imm))
		case isa.OpMulRR:
			r[in.Rd] = m.logic(r[in.Rd] * r[in.Rb])
		case isa.OpMulRI:
			r[in.Rd] = m.logic(r[in.Rd] * uint64(in.Imm))
		case isa.OpDivRR, isa.OpRemRR:
			d := r[in.Rb]
			if d == 0 {
				err = &Fault{PC: in.Addr, Kind: "division by zero"}
				break
			}
			if in.Op == isa.OpDivRR {
				r[in.Rd] = m.logic(uint64(int64(r[in.Rd]) / int64(d)))
			} else {
				r[in.Rd] = m.logic(uint64(int64(r[in.Rd]) % int64(d)))
			}
		case isa.OpAndRR:
			r[in.Rd] = m.logic(r[in.Rd] & r[in.Rb])
		case isa.OpAndRI:
			r[in.Rd] = m.logic(r[in.Rd] & uint64(in.Imm))
		case isa.OpTestRR:
			m.logic(r[in.Rd] & r[in.Rb])
		case isa.OpOrRR:
			r[in.Rd] = m.logic(r[in.Rd] | r[in.Rb])
		case isa.OpOrRI:
			r[in.Rd] = m.logic(r[in.Rd] | uint64(in.Imm))
		case isa.OpXorRR:
			r[in.Rd] = m.logic(r[in.Rd] ^ r[in.Rb])
		case isa.OpXorRI:
			r[in.Rd] = m.logic(r[in.Rd] ^ uint64(in.Imm))
		case isa.OpShlRR:
			r[in.Rd] = m.logic(r[in.Rd] << (r[in.Rb] & 63))
		case isa.OpShlRI:
			r[in.Rd] = m.logic(r[in.Rd] << (uint64(in.Imm) & 63))
		case isa.OpShrRR:
			r[in.Rd] = m.logic(r[in.Rd] >> (r[in.Rb] & 63))
		case isa.OpShrRI:
			r[in.Rd] = m.logic(r[in.Rd] >> (uint64(in.Imm) & 63))
		case isa.OpNot:
			r[in.Rd] = m.logic(^r[in.Rd])
		case isa.OpNeg:
			r[in.Rd] = m.logic(-r[in.Rd])

		case isa.OpPush:
			err = m.Push(r[in.Rd])
		case isa.OpPop:
			r[in.Rd], err = m.Pop()
		case isa.OpPushF:
			err = m.Push(uint64(m.Flags))
		case isa.OpPopF:
			var v uint64
			if v, err = m.Pop(); err == nil {
				m.Flags = isa.Flag(v) & isa.AllFlags
			}

		case isa.OpJmp:
			next, taken = in.Target(), true
		case isa.OpJmpI:
			next, taken = r[in.Rd], true
		case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
			isa.OpJb, isa.OpJae:
			if m.condTaken(in.Op) {
				next, taken = in.Target(), true
			}
		case isa.OpCall:
			if err = m.Push(next); err == nil {
				next, taken = in.Target(), true
			}
		case isa.OpCallI:
			if err = m.Push(next); err == nil {
				next, taken = r[in.Rd], true
			}
		case isa.OpRet:
			var ra uint64
			if ra, err = m.Pop(); err == nil {
				next, taken = ra, true
			}

		case isa.OpSyscall:
			// Services see the fall-through PC, and may move it.
			m.PC = next
			err = m.syscall()
			next = m.PC
		case isa.OpTrap:
			h := m.traps[in.Imm]
			if h == nil {
				err = &Fault{PC: in.Addr, Kind: fmt.Sprintf("unhandled trap %d", in.Imm)}
				break
			}
			m.PC = next
			m.TrapPC = in.Addr
			if m.TrapOrigin != nil {
				if orig, ok := m.TrapOrigin[in.Addr]; ok {
					m.TrapPC = orig
				}
			}
			err = h(m)
			next = m.PC
		case isa.OpNop:
		case isa.OpHlt:
			m.Halted = true
			taken = true
		default:
			err = &Fault{PC: in.Addr, Kind: "invalid opcode " + in.Op.String()}
		}
		if err != nil {
			err = m.at(err, in)
		} else {
			m.PC = next
		}

	retired:
		if prof != nil {
			cc := telemetry.CCApp
			if c.Meta {
				cc = c.CC
			}
			prof.Charge(cc, m.Cycles-before, 1)
		}
		switch {
		case err != nil:
			return nil, err
		case taken && c.JumpTo >= 0 && !m.Halted:
			i = int(c.JumpTo)
		case taken:
			return c, nil
		case m.Halted:
			return nil, nil
		default:
			i++
			if i == len(code) {
				return nil, nil
			}
		}
	}
}

// ea, eax8 and eax1 compute the effective address of a base+disp,
// base+index*8+disp and base+index+disp memory operand.
func ea(r *[isa.NumRegs]uint64, in *isa.Instr) uint64 {
	return r[in.Rb] + uint64(int64(in.Disp))
}

func eax8(r *[isa.NumRegs]uint64, in *isa.Instr) uint64 {
	return r[in.Rb] + r[in.Ri]*8 + uint64(int64(in.Disp))
}

func eax1(r *[isa.NumRegs]uint64, in *isa.Instr) uint64 {
	return r[in.Rb] + r[in.Ri] + uint64(int64(in.Disp))
}

// leaAddr is the address a lea, leaX or leaXB instruction computes.
func leaAddr(r *[isa.NumRegs]uint64, in *isa.Instr) uint64 {
	switch in.Op {
	case isa.OpLeaX:
		return eax8(r, in)
	case isa.OpLeaXB:
		return eax1(r, in)
	}
	return ea(r, in)
}

// add returns a+b and sets the flags of the addition.
func (m *Machine) add(a, b uint64) uint64 {
	res := a + b
	m.setFlags(res, res < a, int64(^(a^b)&(a^res)) < 0)
	return res
}

// sub returns a-b and sets the flags of the subtraction (and comparison).
func (m *Machine) sub(a, b uint64) uint64 {
	res := a - b
	m.setFlags(res, a < b, int64((a^b)&(a^res)) < 0)
	return res
}

// logic sets the flags of a result without carry or overflow and returns
// it.
func (m *Machine) logic(res uint64) uint64 {
	m.setFlags(res, false, false)
	return res
}

// at decorates a fault with the faulting instruction's address.
func (m *Machine) at(err error, in *isa.Instr) error {
	if f, ok := err.(*Fault); ok && f.PC == 0 {
		f.PC = in.Addr
	}
	return err
}

// DecodeBlock decodes the straight-line run of application code starting
// at addr, up to and including the first control transfer, system call or
// trap. It is the one block decoder: native execution and the dynamic
// modifier both build their blocks from it.
func (m *Machine) DecodeBlock(addr uint64) ([]isa.Instr, error) {
	var block []isa.Instr
	var buf [isa.MaxInstrLen]byte
	pc := addr
	for {
		if err := m.Mem.ReadBytes(pc, buf[:]); err != nil {
			return nil, err
		}
		in, err := isa.Decode(buf[:], pc)
		if err != nil {
			if len(block) > 0 {
				// Tolerate garbage after a decoded prefix: execution
				// only faults if it actually falls through to it.
				return block, nil
			}
			return nil, &Fault{PC: pc, Kind: "undecodable instruction: " + err.Error()}
		}
		block = append(block, in)
		pc += uint64(in.Size)
		// Blocks end at control transfers and at system instructions,
		// which may halt the program or transfer control via a service.
		if in.IsCTI() || in.Op == isa.OpSyscall || in.Op == isa.OpTrap {
			return block, nil
		}
	}
}

// Blocks returns the machine's block cache: native blocks and the dynamic
// modifier's translations. Flush it after overwriting code that may have
// run, e.g. when JIT-compiling over an old region.
func (m *Machine) Blocks() *BlockCache { return &m.blocks }

// NativeBlock decodes the block at pc for native execution: the
// application instructions as they are, with no modifier.
func (m *Machine) NativeBlock(pc uint64) (*Block, error) {
	app, err := m.DecodeBlock(pc)
	if err != nil {
		return nil, err
	}
	b := &Block{Start: pc, AppLen: len(app), Code: make([]CInstr, len(app))}
	for i, in := range app {
		b.Code[i] = CInstr{In: in, JumpTo: -1}
	}
	return b, nil
}

// Run executes from entry until the program exits or faults. It is the one
// dispatch loop: each block comes from the block cache, through the
// previous block's links or the cache map, and a miss builds it with
// Translate, or natively when Translate is nil, and marks its shadow checks
// with FuseChecks. A translated block is charged to its Modifier: the
// dispatch counts, the indirect-dispatch cost on an indirect exit, and its
// cycles to the modifier's profile.
func (m *Machine) Run(entry uint64) error {
	sp := telemetry.StartSpan("vm.run", telemetry.Uint("entry", entry))
	defer func() {
		sp.SetAttr(telemetry.Uint("cycles", m.Cycles),
			telemetry.Uint("instrs", m.Instrs))
		sp.End()
	}()
	m.PC = entry
	for !m.Halted {
		if m.BlockHook != nil {
			m.BlockHook(m.PC)
		}
		b := m.blocks.Dispatch(m.PC)
		hit := b != nil
		if !hit {
			var err error
			if m.Translate != nil {
				b, err = m.Translate(m.PC)
			} else {
				b, err = m.NativeBlock(m.PC)
			}
			if err != nil {
				return err
			}
			FuseChecks(b.Code)
			m.blocks.Add(b)
		}
		b.Execs++
		mod := b.Mod
		var prof *telemetry.Profile
		if mod != nil {
			mod.Counts.BlockExecs++
			if hit {
				mod.Counts.CacheHits++
			}
			prof = mod.Prof
		}
		exit, err := m.run(b.Code, prof)
		if err != nil {
			return err
		}
		if mod != nil && exit != nil && exit.In.IsIndirectCTI() {
			mod.Counts.IndirectDispatch++
			m.Cycles += mod.IndirectCost
			mod.Prof.Charge(telemetry.CCDispatch, mod.IndirectCost, 0)
		}
	}
	return nil
}
