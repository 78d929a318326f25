package anserve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// DefaultMemCacheBytes is the default memory-tier budget.
const DefaultMemCacheBytes = 64 << 20

// Config configures a Service.
type Config struct {
	// Workers bounds concurrent module analyses; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// MemCacheBytes is the in-memory cache budget; 0 selects
	// DefaultMemCacheBytes, negative disables the memory tier.
	MemCacheBytes int64
	// CacheDir enables the on-disk artifact tier when non-empty.
	CacheDir string
	// DiskCacheBytes caps the on-disk tier; entries beyond the budget are
	// garbage-collected LRU-by-mtime. <= 0 leaves the tier unbounded.
	DiskCacheBytes int64
	// MaxQueue bounds admitted-but-not-yet-finished analysis requests
	// beyond the worker pool: once Workers+MaxQueue requests are in
	// flight, further submissions are rejected by TryAdmit and the HTTP
	// layer answers 429. <= 0 disables admission control.
	MaxQueue int
	// Tracer is this service's span tracer — the store behind GET /trace
	// and the parent of every request span. Nil falls back to the
	// process-wide telemetry tracer (disabled by default), so existing
	// single-node deployments are unchanged; in-process multi-node fleets
	// (tests) pass distinct tracers to keep per-node trace stores apart.
	Tracer *telemetry.Tracer
}

// Tier says where an analysis response came from. The HTTP layer echoes it
// in the X-Cache response header.
type Tier string

const (
	// TierLocal is a hit in this node's own cache (either tier).
	TierLocal Tier = "local"
	// TierPeer is an artifact filled from the owning fleet sibling.
	TierPeer Tier = "peer"
	// TierMiss is an analysis computed on this node.
	TierMiss Tier = "miss"
)

// Analyzer is the request-path analysis interface. A single node serves
// straight from its Service; a fleet member routes through
// internal/cluster's consistent-hash peer-fill wrapper. toolName is the
// registry name of the tool (needed to forward the request to a sibling;
// the plain Service ignores it). ctx carries the request's telemetry span
// (when tracing is enabled) so analysis and peer-fill spans nest under the
// originating request — implementations must not use it for cancellation,
// because an abandoned request's analysis still finishes and fills the
// cache.
type Analyzer interface {
	AnalyzeBytesTier(ctx context.Context, toolName string, mod *obj.Module, tool core.Tool) ([]byte, Tier, error)
}

// SchedStats are the scheduler counters, readable via Service.Stats and
// GET /stats.
type SchedStats struct {
	// Submitted counts AnalyzeModule requests.
	Submitted uint64 `json:"submitted"`
	// Coalesced counts requests that joined an identical in-flight
	// analysis instead of starting their own (singleflight).
	Coalesced uint64 `json:"coalesced"`
	// CacheHits counts requests served from either cache tier.
	CacheHits uint64 `json:"cache_hits"`
	// Analyzed counts actual static-analysis executions.
	Analyzed uint64 `json:"analyzed"`
	// Errors counts failed analyses.
	Errors uint64 `json:"errors"`
	// Rejected counts requests turned away by the admission gate.
	Rejected uint64 `json:"rejected"`
	// Workers is the pool bound.
	Workers int `json:"workers"`
}

// Stats is the combined service snapshot served by GET /stats.
type Stats struct {
	Cache CacheStats `json:"cache"`
	Sched SchedStats `json:"scheduler"`
}

// Service is the analysis service: content-addressed caching plus a bounded
// worker pool with singleflight deduplication. A single Service is meant to
// be shared process-wide (the evaluation harness keeps one for the whole
// run, janitizerd keeps one for the daemon's lifetime). Safe for concurrent
// use.
type Service struct {
	cache *Cache
	sem   chan struct{}

	mu       sync.Mutex
	inflight map[string]*inflightCall

	submitted, coalesced, cacheHits, analyzed, errors atomic.Uint64

	// reg exposes the same counters as Stats in Prometheus text format
	// (GET /metrics); latency records per-tool analysis durations.
	reg     *telemetry.Registry
	latency map[string]*telemetry.Histogram
	latMu   sync.Mutex

	// tr is the per-node tracer (nil: the process-wide one).
	tr *telemetry.Tracer

	// admitLimit caps concurrently admitted requests (0: unlimited);
	// rejected counts submissions turned away at the admission gate.
	admitLimit int64
	admitCur   atomic.Int64
	rejected   atomic.Uint64
}

type inflightCall struct {
	done chan struct{}
	val  []byte
	tier Tier
	err  error
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memBytes := cfg.MemCacheBytes
	if memBytes == 0 {
		memBytes = DefaultMemCacheBytes
	}
	s := &Service{
		cache:    NewCacheDisk(memBytes, cfg.CacheDir, cfg.DiskCacheBytes),
		sem:      make(chan struct{}, workers),
		inflight: map[string]*inflightCall{},
		reg:      telemetry.NewRegistry(),
		latency:  map[string]*telemetry.Histogram{},
		tr:       cfg.Tracer,
	}
	if cfg.MaxQueue > 0 {
		s.admitLimit = int64(workers + cfg.MaxQueue)
	}
	s.registerMetrics()
	return s
}

// registerMetrics exposes the scheduler and cache counters on the service's
// registry. The functions read the same atomics (and the same Cache.Stats
// snapshot) that back GET /stats, so the two views can never diverge.
func (s *Service) registerMetrics() {
	r := s.reg
	cf := func(name, help string, fn func() uint64) {
		r.CounterFunc(name, help, fn)
	}
	cf("janitizer_analyze_submitted_total",
		"Analysis requests submitted to the scheduler.",
		s.submitted.Load)
	cf("janitizer_analyze_coalesced_total",
		"Requests that joined an identical in-flight analysis.",
		s.coalesced.Load)
	cf("janitizer_analyze_cache_hits_total",
		"Requests served from either rule-cache tier.",
		s.cacheHits.Load)
	cf("janitizer_analyzed_total",
		"Static-analysis executions.",
		s.analyzed.Load)
	cf("janitizer_analyze_errors_total",
		"Failed analyses.",
		s.errors.Load)
	r.GaugeFunc("janitizer_analysis_workers",
		"Worker-pool bound.",
		func() float64 { return float64(cap(s.sem)) })

	cacheCounter := func(name, help, tier string, fn func(CacheStats) uint64) {
		r.CounterFunc(name, help,
			func() uint64 { return fn(s.cache.Stats()) }, "tier", tier)
	}
	cacheCounter("janitizer_rule_cache_hits_total",
		"Rule-cache hits by tier.", "mem",
		func(c CacheStats) uint64 { return c.MemHits })
	cacheCounter("janitizer_rule_cache_hits_total",
		"Rule-cache hits by tier.", "disk",
		func(c CacheStats) uint64 { return c.DiskHits })
	cacheCounter("janitizer_rule_cache_misses_total",
		"Rule-cache misses by tier.", "mem",
		func(c CacheStats) uint64 { return c.MemMisses })
	cacheCounter("janitizer_rule_cache_misses_total",
		"Rule-cache misses by tier.", "disk",
		func(c CacheStats) uint64 { return c.DiskMisses })
	cacheCounter("janitizer_rule_cache_evictions_total",
		"Cache evictions by tier.", "mem",
		func(c CacheStats) uint64 { return c.Evictions })
	cacheCounter("janitizer_rule_cache_evictions_total",
		"Cache evictions by tier.", "disk",
		func(c CacheStats) uint64 { return c.DiskEvictions })
	cacheCounter("janitizer_rule_cache_corrupt_total",
		"Disk-tier entries dropped as corrupt.", "disk",
		func(c CacheStats) uint64 { return c.DiskCorrupt })
	cacheCounter("janitizer_rule_cache_puts_total",
		"Rule-cache insertions.", "mem",
		func(c CacheStats) uint64 { return c.Puts })
	cf("janitizer_analyze_rejected_total",
		"Requests rejected by the admission gate (backpressure).",
		s.rejected.Load)
	r.GaugeFunc("janitizer_rule_cache_mem_bytes",
		"Memory-tier resident bytes.",
		func() float64 { return float64(s.cache.Stats().MemBytes) })
	r.GaugeFunc("janitizer_rule_cache_mem_entries",
		"Memory-tier resident entries.",
		func() float64 { return float64(s.cache.Stats().MemEntries) })
}

// latencyBuckets spans sub-millisecond module analyses to multi-second
// whole-program closures.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// toolLatency returns (lazily creating) the per-tool analysis-duration
// histogram.
func (s *Service) toolLatency(tool string) *telemetry.Histogram {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	h, ok := s.latency[tool]
	if !ok {
		h = s.reg.Histogram("janitizer_analysis_duration_seconds",
			"Wall-clock duration of cache-miss static analyses by tool.",
			latencyBuckets, "tool", tool)
		s.latency[tool] = h
	}
	return h
}

// Registry returns the service's metrics registry — the source for
// GET /metrics; callers may register additional instruments on it.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Tracer returns this service's span tracer: the per-node tracer from
// Config.Tracer, or the process-wide telemetry tracer (possibly nil —
// tracing disabled) when none was configured.
func (s *Service) Tracer() *telemetry.Tracer {
	if s.tr != nil {
		return s.tr
	}
	return telemetry.T()
}

// Workers returns the worker-pool bound.
func (s *Service) Workers() int { return cap(s.sem) }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Cache: s.cache.Stats(),
		Sched: SchedStats{
			Submitted: s.submitted.Load(),
			Coalesced: s.coalesced.Load(),
			CacheHits: s.cacheHits.Load(),
			Analyzed:  s.analyzed.Load(),
			Errors:    s.errors.Load(),
			Rejected:  s.rejected.Load(),
			Workers:   cap(s.sem),
		},
	}
}

// TryAdmit reserves n admission slots, or reports backpressure: false
// means the scheduler queue is full and the caller should answer 429.
// Every successful TryAdmit must be paired with a Finish. With MaxQueue
// unset admission always succeeds.
func (s *Service) TryAdmit(n int) bool {
	if s.admitLimit <= 0 {
		return true
	}
	for {
		cur := s.admitCur.Load()
		if cur+int64(n) > s.admitLimit {
			s.rejected.Add(uint64(n))
			return false
		}
		if s.admitCur.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// Finish releases n admission slots reserved by TryAdmit.
func (s *Service) Finish(n int) {
	if s.admitLimit > 0 {
		s.admitCur.Add(-int64(n))
	}
}

// Accepting reports whether the admission gate has room — the readiness
// half of GET /readyz.
func (s *Service) Accepting() bool {
	return s.admitLimit <= 0 || s.admitCur.Load() < s.admitLimit
}

// DiskReady reports whether the on-disk cache tier (if configured) accepts
// writes; used by GET /readyz.
func (s *Service) DiskReady() error { return s.cache.DiskReady() }

// CacheProbe is a pure cache lookup by content address — no scheduling, no
// computation. internal/cluster uses it to distinguish a local hit from a
// peer-fill opportunity. The returned slice is shared.
func (s *Service) CacheProbe(key string) ([]byte, bool) { return s.cache.Get(key) }

// CacheInsert stores an externally produced artifact (a peer fill) under
// its content address. The cache keeps a reference to val.
func (s *Service) CacheInsert(key string, val []byte) { s.cache.Put(key, val) }

// AnalyzeModuleBytes returns the marshaled rules.File (.jrw bytes) for mod
// under tool, serving from cache when possible. Concurrent calls for the
// same (module, tool configuration) coalesce into one analysis. The
// returned slice is shared — callers must not modify it.
func (s *Service) AnalyzeModuleBytes(mod *obj.Module, tool core.Tool) ([]byte, error) {
	b, _, err := s.AnalyzeBytesTier(context.Background(), "", mod, tool)
	return b, err
}

// AnalyzeBytesTier implements Analyzer: AnalyzeModuleBytes plus where the
// answer came from (TierLocal for a cache hit, TierMiss for a computed
// analysis; coalesced callers inherit the leader's tier). toolName is
// ignored — a single node never forwards.
func (s *Service) AnalyzeBytesTier(ctx context.Context, _ string, mod *obj.Module, tool core.Tool) ([]byte, Tier, error) {
	s.submitted.Add(1)
	key := CacheKey(mod, tool)

	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		<-c.done
		return c.val, c.tier, c.err
	}
	c := &inflightCall{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	c.val, c.tier, c.err = s.analyze(ctx, key, mod, tool)

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	return c.val, c.tier, c.err
}

// AnalyzeModule is core.AnalyzeModule over the cached byte path.
func (s *Service) AnalyzeModule(mod *obj.Module, tool core.Tool) (*rules.File, error) {
	b, err := s.AnalyzeModuleBytes(mod, tool)
	if err != nil {
		return nil, err
	}
	return rules.Unmarshal(b)
}

func (s *Service) analyze(ctx context.Context, key string, mod *obj.Module, tool core.Tool) ([]byte, Tier, error) {
	sp, ctx := s.Tracer().StartFrom(ctx, "anserve.analyze",
		telemetry.String("module", mod.Name),
		telemetry.String("tool", tool.Name()))
	defer sp.End()
	if b, ok := s.cache.Get(key); ok {
		s.cacheHits.Add(1)
		sp.SetAttr(telemetry.String("cache", "hit"))
		return b, TierLocal, nil
	}
	sp.SetAttr(telemetry.String("cache", "miss"))
	s.sem <- struct{}{} // worker-pool slot
	defer func() { <-s.sem }()
	sp.AddEvent("worker-acquired")
	start := time.Now()
	var b []byte
	var err error
	if at, ok := tool.(core.ArtifactTool); ok {
		b, err = at.AnalyzeArtifact(mod)
	} else {
		var f *rules.File
		f, err = core.AnalyzeModuleCtx(ctx, mod, tool)
		if err == nil {
			b = f.Marshal()
		}
	}
	// The exemplar links the slow bucket to the concrete trace that filled
	// it; with tracing disabled TraceID is "" and this is a plain Observe.
	s.toolLatency(tool.Name()).ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
	if err != nil {
		s.errors.Add(1)
		sp.SetError(err.Error())
		return nil, TierMiss, fmt.Errorf("anserve: %w", err)
	}
	s.analyzed.Add(1)
	s.cache.Put(key, b)
	return b, TierMiss, nil
}

// AnalyzeProgram analyzes the main module and its ldd-visible closure
// concurrently, in dependency-topological order: a module's analysis starts
// only after every dependency that precedes it in the closure has finished,
// so shared libraries land in the cache before the binaries that need them.
// Goroutines park on dependency completion without holding worker slots, so
// the pool bound applies to actual analyses only. Drop-in replacement for
// core.AnalyzeProgram.
func (s *Service) AnalyzeProgram(main *obj.Module, reg loader.Registry,
	tool core.Tool) (map[string]*rules.File, error) {

	mods, err := loader.LddClosure(main, reg)
	if err != nil {
		return nil, fmt.Errorf("anserve: %w", err)
	}

	type node struct {
		mod  *obj.Module
		done chan struct{}
		file *rules.File
		err  error
	}
	nodes := make(map[string]*node, len(mods))
	index := make(map[string]int, len(mods))
	order := make([]*node, len(mods))
	for i, m := range mods {
		n := &node{mod: m, done: make(chan struct{})}
		nodes[m.Name] = n
		index[m.Name] = i
		order[i] = n
	}
	for i, n := range order {
		go func(i int, n *node) {
			defer close(n.done)
			for _, dep := range n.mod.Needed {
				// Wait only for dependencies that precede this
				// module in the closure: LddClosure emits
				// dependency-first order, and the index guard keeps
				// a (malformed) dependency cycle from deadlocking
				// the pool.
				dn, ok := nodes[dep]
				if !ok || index[dep] >= i {
					continue
				}
				<-dn.done
				if dn.err != nil {
					n.err = fmt.Errorf("anserve: %s: dependency %s failed",
						n.mod.Name, dep)
					return
				}
			}
			n.file, n.err = s.AnalyzeModule(n.mod, tool)
		}(i, n)
	}

	out := make(map[string]*rules.File, len(order))
	for _, n := range order {
		<-n.done
	}
	// Dependency-first order means the root cause sorts before the
	// "dependency failed" placeholders.
	for _, n := range order {
		if n.err != nil {
			return nil, n.err
		}
		out[n.mod.Name] = n.file
	}
	return out, nil
}
