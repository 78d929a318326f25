package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// Config configures one fleet member.
type Config struct {
	// Self is this node's advertised address; it must appear in Members.
	Self string
	// Members is the full static fleet list (every node, self included),
	// identical on all nodes — from janitizerd's -peers flag.
	Members []string
	// VirtualNodes per member; <= 0 selects DefaultVirtualNodes.
	VirtualNodes int
	// PeerTimeout bounds one peer-fill round trip, including the owner's
	// compute on its own miss; 0 selects DefaultPeerTimeout.
	PeerTimeout time.Duration
	// ProbeInterval is the health-probe period; 0 selects
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive failures (probe or fill) mark
	// a peer down; 0 selects DefaultFailThreshold.
	FailThreshold int
}

// Cluster defaults.
const (
	DefaultPeerTimeout   = 15 * time.Second
	DefaultProbeInterval = 2 * time.Second
	DefaultFailThreshold = 2
)

// Cluster implements anserve.Analyzer over a fleet: local cache first,
// then a peer fill from the key's home shard, then local compute. It
// coalesces concurrent identical requests before any network hop
// (singleflight hop one; the owner's own service singleflights hop two).
type Cluster struct {
	svc    *anserve.Service
	ring   *Ring
	self   string
	client *http.Client // with this member's own transport: see Close
	cfg    Config

	peers map[string]*peerState // every member except self

	mu       sync.Mutex
	inflight map[string]*call

	// counters surface on the service registry as janitizer_cluster_*.
	peerFills     atomic.Uint64 // artifacts filled from a sibling
	peerFillErrs  atomic.Uint64 // failed fill attempts (any cause)
	localFallback atomic.Uint64 // non-owned keys computed locally anyway
	coalesced     atomic.Uint64 // requests joining an in-flight fill
	probes        atomic.Uint64 // health probes sent
	fillLatency   *telemetry.Histogram
}

// peerState tracks one sibling's health. up flips pessimistic after
// FailThreshold consecutive failures (probes and fills both count) and
// optimistic again on any success.
type peerState struct {
	up    atomic.Bool
	fails atomic.Int32
}

type call struct {
	done chan struct{}
	val  []byte
	tier anserve.Tier
	err  error
}

// New returns a fleet member wrapping svc. Config.Self must be listed in
// Config.Members.
func New(svc *anserve.Service, cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Members, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	c := &Cluster{
		svc:  svc,
		ring: ring,
		self: cfg.Self,
		cfg:  cfg,
		client: &http.Client{
			Transport: http.DefaultTransport.(*http.Transport).Clone(),
			Timeout:   cfg.PeerTimeout,
		},
		peers:    map[string]*peerState{},
		inflight: map[string]*call{},
	}
	found := false
	for _, m := range ring.Members() {
		if m == cfg.Self {
			found = true
			continue
		}
		ps := &peerState{}
		ps.up.Store(true) // optimistic: first contact decides
		c.peers[m] = ps
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in member list %v",
			cfg.Self, ring.Members())
	}
	c.registerMetrics()
	return c, nil
}

func (c *Cluster) registerMetrics() {
	r := c.svc.Registry()
	r.CounterFunc("janitizer_cluster_peer_fill_total",
		"Artifacts filled from the owning fleet sibling.",
		c.peerFills.Load)
	r.CounterFunc("janitizer_cluster_peer_fill_errors_total",
		"Peer-fill attempts that failed (transport, status, or bad bytes).",
		c.peerFillErrs.Load)
	r.CounterFunc("janitizer_cluster_local_fallback_total",
		"Sibling-owned artifacts computed locally because the owner was unavailable.",
		c.localFallback.Load)
	r.CounterFunc("janitizer_cluster_coalesced_total",
		"Requests that joined an identical in-flight cluster lookup.",
		c.coalesced.Load)
	r.CounterFunc("janitizer_cluster_probes_total",
		"Health probes sent to siblings.",
		c.probes.Load)
	r.GaugeFunc("janitizer_cluster_ring_members",
		"Fleet size this node places against.",
		func() float64 { return float64(len(c.ring.Members())) })
	for addr, ps := range c.peers {
		ps := ps
		r.GaugeFunc("janitizer_cluster_peer_up",
			"Sibling health as seen by this node (1 up, 0 down).",
			func() float64 {
				if ps.up.Load() {
					return 1
				}
				return 0
			}, "peer", addr)
	}
	c.fillLatency = r.Histogram("janitizer_cluster_peer_fill_duration_seconds",
		"Wall-clock duration of successful peer fills.",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
			0.1, 0.25, 0.5, 1, 2.5, 5, 10})
}

// Ring exposes the placement ring (janitizerd reports the fleet size from it).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the home shard for a cache key.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Self returns this node's advertised address.
func (c *Cluster) Self() string { return c.self }

// Healthy reports whether addr is believed up. Self is always healthy;
// unknown addresses are not.
func (c *Cluster) Healthy(addr string) bool {
	if addr == c.self {
		return true
	}
	ps, ok := c.peers[addr]
	return ok && ps.up.Load()
}

func (c *Cluster) markFailure(addr string) {
	ps, ok := c.peers[addr]
	if !ok {
		return
	}
	if int(ps.fails.Add(1)) >= c.cfg.FailThreshold {
		ps.up.Store(false)
	}
}

func (c *Cluster) markSuccess(addr string) {
	ps, ok := c.peers[addr]
	if !ok {
		return
	}
	ps.fails.Store(0)
	ps.up.Store(true)
}

// Close closes the idle connections of the member's peer transport. A
// sibling's http.Server.Shutdown waits seconds for a connection that was
// dialed for a concurrent fill but never carried a request, so a member
// closes its own before the fleet shuts down. The cluster stays usable: a
// later fill dials afresh.
func (c *Cluster) Close() { c.client.CloseIdleConnections() }

// Start launches the health-probe loop; it stops, and closes the peer
// transport's idle connections, when ctx is cancelled. Probing is an
// optimization — fills also mark peers passively — so a cluster without
// Start still degrades correctly, just one failed fill at a time.
func (c *Cluster) Start(ctx context.Context) {
	go func() {
		ticker := time.NewTicker(c.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			c.probeAll(ctx)
			select {
			case <-ctx.Done():
				c.Close()
				return
			case <-ticker.C:
			}
		}
	}()
}

func (c *Cluster) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for addr := range c.peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c.probes.Add(1)
			probeCtx, cancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
			defer cancel()
			req, err := http.NewRequestWithContext(probeCtx, "GET",
				"http://"+addr+"/healthz", nil)
			if err != nil {
				c.markFailure(addr)
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				c.markFailure(addr)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.markSuccess(addr)
			} else {
				c.markFailure(addr)
			}
		}(addr)
	}
	wg.Wait()
}

// AnalyzeBytesTier implements anserve.Analyzer for a fleet member:
//
//  1. coalesce with any identical in-flight lookup (hop-one singleflight);
//  2. probe the local cache (both tiers) — hit: TierLocal;
//  3. if the key's home shard is a healthy sibling, fetch the artifact
//     from it (the sibling serves from cache or computes under its own
//     singleflight — hop two) — success: TierPeer, cached locally;
//  4. otherwise, or on any fill failure, compute locally — TierMiss.
//
// ctx carries the request's trace span (not cancellation); a coalesced
// request's result is attributed to the leader's trace.
func (c *Cluster) AnalyzeBytesTier(ctx context.Context, toolName string,
	mod *obj.Module, tool core.Tool) ([]byte, anserve.Tier, error) {

	key := anserve.CacheKey(mod, tool)

	c.mu.Lock()
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-call.done
		return call.val, call.tier, call.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.tier, cl.err = c.lookup(ctx, key, toolName, mod, tool)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(cl.done)
	return cl.val, cl.tier, cl.err
}

func (c *Cluster) lookup(ctx context.Context, key, toolName string,
	mod *obj.Module, tool core.Tool) ([]byte, anserve.Tier, error) {

	if b, ok := c.svc.CacheProbe(key); ok {
		return b, anserve.TierLocal, nil
	}
	owner := c.ring.Owner(key)
	if owner != c.self {
		if c.Healthy(owner) {
			if b, err := c.fillFromPeer(ctx, owner, toolName, mod, tool); err == nil {
				c.svc.CacheInsert(key, b)
				return b, anserve.TierPeer, nil
			}
		}
		// Owner down or fill failed: slower, never wrong.
		c.localFallback.Add(1)
	}
	b, tier, err := c.svc.AnalyzeBytesTier(ctx, toolName, mod, tool)
	return b, tier, err
}

// fillFromPeer fetches one artifact from its home shard. The peer serves
// the request strictly locally (PeerFillHeader), so fills cannot loop.
// Any failure — transport, non-200, or bytes that do not validate as this
// tool's artifact for this module — counts against the peer's health and
// makes the caller fall back to local compute.
//
// The fill rides the requester's trace: a child span covers the round trip
// and its context travels to the owner as a Traceparent header, so the
// owner's server span joins the same trace with this span as its remote
// parent.
func (c *Cluster) fillFromPeer(ctx context.Context, owner, toolName string,
	mod *obj.Module, tool core.Tool) ([]byte, error) {
	sp, _ := c.svc.Tracer().StartFrom(ctx, "cluster.peer-fill",
		telemetry.String("module", mod.Name),
		telemetry.String("owner", owner))
	defer sp.End()
	start := time.Now()
	fail := func(err error) ([]byte, error) {
		c.peerFillErrs.Add(1)
		c.markFailure(owner)
		sp.SetError(err.Error())
		return nil, err
	}

	url := "http://" + owner + "/analyze?tool=" + toolName
	req, err := http.NewRequest("POST", url, strings.NewReader(string(mod.Marshal())))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(anserve.PeerFillHeader, "1")
	if sc := sp.Context(); sc.Valid() {
		req.Header.Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(sc))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fail(fmt.Errorf("cluster: fill %s from %s: %w", mod.Name, owner, err))
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, anserve.MaxModuleBytes))
	if err != nil {
		return fail(fmt.Errorf("cluster: fill %s from %s: %w", mod.Name, owner, err))
	}
	if resp.StatusCode != http.StatusOK {
		// An overloaded owner (429) is healthy but busy: fall back
		// without dinging its health.
		c.peerFillErrs.Add(1)
		if resp.StatusCode != http.StatusTooManyRequests {
			c.markFailure(owner)
		}
		return nil, fmt.Errorf("cluster: fill %s from %s: status %d",
			mod.Name, owner, resp.StatusCode)
	}
	// Trust but verify: cached bytes must be this tool's artifact for
	// this module — a custom artifact for ArtifactTools, a rule file
	// otherwise.
	if at, ok := tool.(core.ArtifactTool); ok {
		if err := at.ValidateArtifact(mod, body); err != nil {
			return fail(fmt.Errorf("cluster: fill %s from %s: bad artifact: %w",
				mod.Name, owner, err))
		}
	} else {
		f, err := rules.Unmarshal(body)
		if err != nil {
			return fail(fmt.Errorf("cluster: fill %s from %s: bad artifact: %w",
				mod.Name, owner, err))
		}
		if f.Module != mod.Name {
			return fail(fmt.Errorf("cluster: fill from %s returned rules for %q, want %q",
				owner, f.Module, mod.Name))
		}
	}
	c.markSuccess(owner)
	c.peerFills.Add(1)
	c.fillLatency.ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
	return body, nil
}
