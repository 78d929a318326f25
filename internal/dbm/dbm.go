// Package dbm implements the dynamic binary modifier underlying Janitizer —
// the reproduction's DynamoRIO. It discovers code one basic block at a time
// as control reaches it, lets a client (security tool) rewrite each block
// once at translation time, places the rewritten block in a code cache, and
// dispatches between cached blocks.
//
// Performance modelling: the machine's cycle counter is charged for every
// executed instruction (including inserted instrumentation — that is the
// honest part of the model) plus explicit DBT costs: a one-time translation
// cost per built block and a dispatch cost per executed indirect control
// transfer (the indirect-branch-lookup of a real DBT). Direct transitions
// are linked and free after the first execution, as in DynamoRIO — and the
// host links them too: each cached block keeps direct links to the blocks
// dispatched after it, so a repeated transition skips the cache map. The
// modifier is the machine's block-miss handler (vm.Machine.Translate): its
// blocks live in the machine's one block cache, and vm.Machine.Run
// dispatches and executes them in the form the client emitted them,
// charging each to the modifier's vm.Modifier. The "null client" —
// translation with no instrumentation — therefore shows the baseline DBT
// overhead the paper reports in Figs. 8 and 11.
package dbm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// RelocKind tags a meta instruction whose immediate is position-dependent
// (see vm.RelocKind).
type RelocKind = vm.RelocKind

const (
	// RelocNone marks position-independent meta code (the default).
	RelocNone = vm.RelocNone
	// RelocRetAddr marks a meta MovRI whose immediate is the return
	// address of the anchor call instruction (the shadow-stack push).
	RelocRetAddr = vm.RelocRetAddr
)

// CInstr is one code-cache instruction: an application instruction copied
// into the cache, or a meta-instruction inserted by the client. It is the
// executor's own form (vm.CInstr), so a cached block holds its code once.
type CInstr = vm.CInstr

// App wraps an application instruction for the code cache.
func App(in isa.Instr) CInstr { return CInstr{In: in, JumpTo: -1} }

// Meta wraps an inserted meta-instruction.
func Meta(in isa.Instr) CInstr { return CInstr{In: in, JumpTo: -1, Meta: true} }

// MetaJump wraps an inserted branch that, when taken, continues at index
// target within the same block.
func MetaJump(in isa.Instr, target int) CInstr {
	return CInstr{In: in, JumpTo: int32(target), Meta: true}
}

// Block is one translated basic block in the code cache.
type Block = vm.Block

// BlockContext is what a client sees when a block is first built.
type BlockContext struct {
	DBM *DBM
	// Start is the run-time address of the block head.
	Start uint64
	// AppInstrs are the decoded application instructions, at run-time
	// addresses.
	AppInstrs []isa.Instr
	// Module is the loaded module containing the block, or nil for
	// dynamically generated (JIT) code.
	Module *loader.LoadedModule
}

// Client rewrites blocks at translation time — the DynamoRIO client
// interface. OnBlock returns the code to place in the cache; returning the
// application instructions unchanged (see NullClient) is the identity
// translation.
type Client interface {
	OnBlock(ctx *BlockContext) []CInstr
}

// NullClient performs identity translation: pure DBT overhead, no
// instrumentation (the "null client" baseline of Fig. 8).
type NullClient struct{}

// OnBlock copies the application instructions unchanged.
func (NullClient) OnBlock(ctx *BlockContext) []CInstr {
	out := make([]CInstr, len(ctx.AppInstrs))
	for i, in := range ctx.AppInstrs {
		out[i] = App(in)
	}
	return out
}

// Costs models the DBT's own overhead in machine cycles.
type Costs struct {
	// BlockBuild is charged once per block translation.
	BlockBuild uint64
	// PerInstr is charged per application instruction translated.
	PerInstr uint64
	// IndirectDispatch is charged per executed indirect control transfer
	// (the indirect-branch-lookup hash probe).
	IndirectDispatch uint64
}

// DefaultCosts approximates DynamoRIO 8.0 (a null-client overhead around
// 10–30% on call-heavy code).
var DefaultCosts = Costs{BlockBuild: 250, PerInstr: 25, IndirectDispatch: 25}

// Stats counts dynamic-modification events.
type Stats struct {
	// DispatchCounts are counted by the machine's dispatch loop as it runs
	// the modifier's blocks. CacheHits counts dispatches served from the
	// cache; every dispatch is either a hit or a build, so
	// BlockExecs == CacheHits + BlocksBuilt.
	vm.DispatchCounts
	BlocksBuilt       uint64
	AppInstrsInCache  uint64
	MetaInstrsInCache uint64
	// Flushes counts Flush/FlushRange calls; FlushedBlocks counts the
	// blocks they evicted.
	Flushes       uint64
	FlushedBlocks uint64
}

// DBM drives execution of a process under dynamic modification.
type DBM struct {
	M      *vm.Machine
	Proc   *loader.Process
	Client Client
	Costs  Costs
	Stats  Stats

	// Prof, when set, receives per-cost-center cycle/instruction
	// attribution for every executed code-cache instruction and every
	// explicit DBT charge. Nil (the default) disables attribution without
	// changing the run's measured cycles — the profiler only observes the
	// machine's counters, it never adds to them.
	Prof *telemetry.Profile

	// mod is what every block this modifier builds points at.
	mod vm.Modifier
}

// New creates a dynamic modifier over a loaded process. proc may be nil when
// running raw code without a loader (tests).
func New(m *vm.Machine, proc *loader.Process, client Client) *DBM {
	return &DBM{
		M: m, Proc: proc, Client: client,
		Costs: DefaultCosts,
	}
}

// Flush empties the code cache (used when application code is overwritten).
func (d *DBM) Flush() {
	d.Stats.Flushes++
	d.Stats.FlushedBlocks += uint64(d.M.Blocks().Flush())
}

// FlushRange evicts cached blocks whose start address lies in [lo, hi) —
// used when a module is unloaded — and unlinks the blocks that remain.
func (d *DBM) FlushRange(lo, hi uint64) {
	d.Stats.Flushes++
	d.Stats.FlushedBlocks += uint64(d.M.Blocks().FlushRange(lo, hi))
}

// Run executes the program from entry under dynamic modification until it
// halts or faults: the machine's dispatch loop, with Translate handling
// every block-cache miss.
func (d *DBM) Run(entry uint64) error {
	sp := telemetry.StartSpan("dbm.run", telemetry.Uint("entry", entry))
	defer func() {
		sp.SetAttr(
			telemetry.Uint("blocks_built", d.Stats.BlocksBuilt),
			telemetry.Uint("block_execs", d.Stats.BlockExecs),
			telemetry.Uint("cache_hits", d.Stats.CacheHits),
			telemetry.Uint("cycles", d.M.Cycles),
			telemetry.Uint("instrs", d.M.Instrs),
		)
		sp.End()
	}()
	d.M.Translate = d.Translate
	return d.M.Run(entry)
}

// Translate decodes and rewrites the block starting at addr (Fig. 4 step 2:
// the dispatcher fetches the block and hands it to the modifier) and
// charges its translation cost. The machine caches the result.
func (d *DBM) Translate(addr uint64) (*Block, error) {
	appInstrs, err := d.M.DecodeBlock(addr)
	if err != nil {
		return nil, err
	}
	var mod *loader.LoadedModule
	if d.Proc != nil {
		mod = d.Proc.ModuleAt(addr)
	}
	code := d.Client.OnBlock(&BlockContext{
		DBM: d, Start: addr, AppInstrs: appInstrs, Module: mod,
	})
	if len(code) == 0 {
		return nil, fmt.Errorf("dbm: client returned empty block at %#x", addr)
	}
	// Costs and Prof are set by the caller after New; every block shares
	// the one Modifier, so this refresh reaches the blocks already built.
	d.mod = vm.Modifier{Counts: &d.Stats.DispatchCounts,
		IndirectCost: d.Costs.IndirectDispatch, Prof: d.Prof}
	blk := &Block{Start: addr, AppLen: len(appInstrs), Code: code, Mod: &d.mod}

	d.Stats.BlocksBuilt++
	d.Stats.AppInstrsInCache += uint64(len(appInstrs))
	for i := range code {
		if code[i].Meta {
			d.Stats.MetaInstrsInCache++
		}
	}
	buildCost := d.Costs.BlockBuild + d.Costs.PerInstr*uint64(len(appInstrs))
	d.M.AddCycles(buildCost)
	d.Prof.Charge(telemetry.CCDispatch, buildCost, 0)
	return blk, nil
}
