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
// dispatched after it (vm.BlockCache), so a repeated transition skips the
// code-cache map. Blocks run on the machine's one executor
// (vm.Machine.ExecBlock), in the form the client emitted them. The
// "null client" — translation with no instrumentation — therefore shows the
// baseline DBT overhead the paper reports in Figs. 8 and 11.
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
	BlocksBuilt       uint64
	BlockExecs        uint64
	IndirectDispatch  uint64
	AppInstrsInCache  uint64
	MetaInstrsInCache uint64
	// CacheHits counts dispatches served from the code cache; every
	// dispatch is either a hit or a build, so
	// BlockExecs == CacheHits + BlocksBuilt.
	CacheHits uint64
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

	// TraceHook, when set, observes every block dispatch (diagnostics).
	TraceHook func(pc uint64)

	cache vm.BlockCache
}

// New creates a dynamic modifier over a loaded process. proc may be nil when
// running raw code without a loader (tests).
func New(m *vm.Machine, proc *loader.Process, client Client) *DBM {
	return &DBM{
		M: m, Proc: proc, Client: client,
		Costs: DefaultCosts,
	}
}

// Lookup returns the cached block at run-time address addr, or nil.
func (d *DBM) Lookup(addr uint64) *Block { return d.cache.Get(addr) }

// CacheSize returns the number of blocks in the code cache.
func (d *DBM) CacheSize() int { return d.cache.Len() }

// Blocks returns the cached blocks (iteration order unspecified).
func (d *DBM) Blocks() map[uint64]*Block { return d.cache.Blocks() }

// Flush empties the code cache (used when application code is overwritten).
func (d *DBM) Flush() {
	d.Stats.Flushes++
	d.Stats.FlushedBlocks += uint64(d.cache.Flush())
}

// FlushRange evicts cached blocks whose start address lies in [lo, hi) —
// used when a module is unloaded — and unlinks the blocks that remain.
func (d *DBM) FlushRange(lo, hi uint64) {
	d.Stats.Flushes++
	d.Stats.FlushedBlocks += uint64(d.cache.FlushRange(lo, hi))
}

// RegisterMetrics exposes the code-cache counters on a telemetry registry
// under the given label pairs. Series read d.Stats at exposition time, so
// scrape only from the run's goroutine or after the run finishes.
func (d *DBM) RegisterMetrics(r *telemetry.Registry, labels ...string) {
	r.CounterFunc("janitizer_dbm_cache_hits_total",
		"Block dispatches served from the code cache.",
		func() uint64 { return d.Stats.CacheHits }, labels...)
	r.CounterFunc("janitizer_dbm_cache_misses_total",
		"Block dispatches that required a translation (cache misses).",
		func() uint64 { return d.Stats.BlocksBuilt }, labels...)
	r.CounterFunc("janitizer_dbm_cache_flushes_total",
		"Code-cache flush operations.",
		func() uint64 { return d.Stats.Flushes }, labels...)
	r.CounterFunc("janitizer_dbm_cache_flushed_blocks_total",
		"Blocks evicted by cache flushes.",
		func() uint64 { return d.Stats.FlushedBlocks }, labels...)
	r.CounterFunc("janitizer_dbm_block_execs_total",
		"Cached block executions.",
		func() uint64 { return d.Stats.BlockExecs }, labels...)
	r.CounterFunc("janitizer_dbm_indirect_dispatch_total",
		"Indirect-branch dispatches (hash-lookup cost charged).",
		func() uint64 { return d.Stats.IndirectDispatch }, labels...)
	r.GaugeFunc("janitizer_dbm_cache_blocks",
		"Blocks currently in the code cache.",
		func() float64 { return float64(d.cache.Len()) }, labels...)
}

// Run executes the program from entry under dynamic modification until it
// halts or faults.
func (d *DBM) Run(entry uint64) error {
	sp := telemetry.StartSpan("dbm.run", telemetry.Uint("entry", entry))
	m := d.M
	m.PC = entry
	for !m.Halted {
		if err := d.Step(); err != nil {
			d.endRunSpan(sp)
			return err
		}
	}
	d.endRunSpan(sp)
	return nil
}

// Step dispatches exactly one block at the machine's current PC: cache
// lookup — through the previous block's successor links, else the cache
// map — or translation on a miss, followed by execution. On return m.PC
// holds the next application address, or the machine has halted. Step is
// Run's loop body, exported so the hybrid rewriting backend can interleave
// DBM dispatch with native execution of statically rewritten code.
func (d *DBM) Step() error {
	m := d.M
	if d.TraceHook != nil {
		d.TraceHook(m.PC)
	}
	blk := d.cache.Dispatch(m.PC)
	if blk == nil {
		var err error
		blk, err = d.build(m.PC)
		if err != nil {
			return err
		}
	} else {
		d.Stats.CacheHits++
	}
	return d.exec(blk)
}

// endRunSpan finishes the dbm.run span with the run's final counters.
func (d *DBM) endRunSpan(sp *telemetry.Span) {
	sp.SetAttr(
		telemetry.Uint("blocks_built", d.Stats.BlocksBuilt),
		telemetry.Uint("block_execs", d.Stats.BlockExecs),
		telemetry.Uint("cache_hits", d.Stats.CacheHits),
		telemetry.Uint("cycles", d.M.Cycles),
		telemetry.Uint("instrs", d.M.Instrs),
	)
	sp.End()
}

// build decodes, rewrites and caches the block starting at addr (Fig. 4
// step 2: the dispatcher fetches the block and hands it to the modifier).
func (d *DBM) build(addr uint64) (*Block, error) {
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
	blk := &Block{Start: addr, AppLen: len(appInstrs), Code: code}
	d.cache.Add(blk)

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

// exec runs one cached block on the machine's executor. Application
// control transfers leave it with m.PC holding the next application
// address; an indirect one charges the dispatch cost.
func (d *DBM) exec(b *Block) error {
	d.Stats.BlockExecs++
	exit, err := d.M.ExecBlock(b, d.Prof)
	if err != nil {
		return err
	}
	if exit != nil && exit.In.IsIndirectCTI() {
		d.Stats.IndirectDispatch++
		d.M.AddCycles(d.Costs.IndirectDispatch)
		d.Prof.Charge(telemetry.CCDispatch, d.Costs.IndirectDispatch, 0)
	}
	return nil
}
