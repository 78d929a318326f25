package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/anserve"
	"repro/internal/buildinfo"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// newTool builds the tool every test node serves under name: the fleet
// serves anserve.DefaultTools, as janitizerd does.
func newTool(name string) core.Tool { return anserve.DefaultTools()[name]() }

// fleetTools are the tool configurations the fleet tests send traffic for.
var fleetTools = []string{"jasan", "jcfi", "jmsan"}

// gateTool blocks inside StaticPass until released, keeping an analysis in
// flight on the node that owns it.
type gateTool struct {
	core.Tool
	gate <-chan struct{}
}

func (g *gateTool) StaticPass(sc *core.StaticContext) []rules.Rule {
	<-g.gate
	return g.Tool.StaticPass(sc)
}

// testNode is one fleet member: service, cluster wrapper, daemon,
// listener. Each node carries its own tracer — exactly what janitizerd
// does per process — so cross-node trace tests can inspect both sides.
type testNode struct {
	addr string
	svc  *anserve.Service
	clu  *Cluster
	d    *anserve.Daemon
	tr   *telemetry.Tracer
	down bool
}

// kill shuts the node's daemon down mid-run.
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.d.Shutdown(ctx); err != nil {
		t.Fatalf("kill %s: %v", n.addr, err)
	}
	n.down = true
}

// startFleet brings up n janitizerd-equivalent nodes on loopback
// listeners, all placing against the same member list and serving
// anserve.DefaultTools. gates[i], when present, wraps node i's jasan so
// tests can hold its analyses open.
func startFleet(t *testing.T, n int, gates map[int]<-chan struct{}) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		tr := telemetry.NewTracer(64)
		svc := anserve.New(anserve.Config{Workers: 4, Tracer: tr})
		buildinfo.Register(svc.Registry())
		clu, err := New(svc, Config{
			Self:          addrs[i],
			Members:       addrs,
			PeerTimeout:   2 * time.Minute, // gated analyses must not trip it
			FailThreshold: 1,               // tests want immediate passive demotion
		})
		if err != nil {
			t.Fatal(err)
		}
		tools := anserve.DefaultTools()
		if gate := gates[i]; gate != nil {
			base := tools["jasan"]
			tools["jasan"] = func() core.Tool { return &gateTool{Tool: base(), gate: gate} }
		}
		d := anserve.NewDaemonOpts(svc, tools, anserve.DaemonOptions{
			Handler: anserve.HandlerOpts{Analyzer: clu},
		})
		nodes[i] = &testNode{addr: addrs[i], svc: svc, clu: clu, d: d, tr: tr}
		go d.Serve(lns[i])
	}
	t.Cleanup(func() {
		// Peer fills share the default transport. A connection it dialed
		// for a concurrent fill but never used is, to the server, a new
		// connection that Shutdown waits seconds for; closing the idle
		// ones first lets every node shut down at once.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		for _, node := range nodes {
			if node.down {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			node.d.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

// compileN builds the i-th distinct test module (distinct content hash,
// same shape).
func compileN(t *testing.T, i int) *obj.Module {
	t.Helper()
	mod, err := cc.Compile(fmt.Sprintf(`
int work(int n) {
	int j;
	int s;
	s = %d;
	for (j = 0; j < n; j = j + 1) { s = s + j; }
	return s;
}
int main() { return work(10); }
`, i), cc.Options{Module: fmt.Sprintf("cluster-test-%d", i), O2: true})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// moduleOwnedBy searches for a module whose cache key lands on the wanted
// node.
func moduleOwnedBy(t *testing.T, clu *Cluster, owner string) *obj.Module {
	t.Helper()
	for i := 0; i < 256; i++ {
		mod := compileN(t, i)
		if clu.Owner(anserve.CacheKey(mod, newTool("jasan"))) == owner {
			return mod
		}
	}
	t.Fatalf("no test module hashes to %s", owner)
	return nil
}

// post sends one analysis request and returns status, X-Cache tier and
// body.
func post(t *testing.T, addr, tool string, mod *obj.Module) (int, string, []byte) {
	t.Helper()
	status, tier, body, err := analyze(addr, tool, mod)
	if err != nil {
		t.Fatal(err)
	}
	return status, tier, body
}

// analyze is post without the test handle, for client goroutines.
func analyze(addr, tool string, mod *obj.Module) (int, string, []byte, error) {
	resp, err := http.Post("http://"+addr+"/analyze?tool="+tool,
		"application/octet-stream", bytes.NewReader(mod.Marshal()))
	if err != nil {
		return 0, "", nil, fmt.Errorf("post to %s: %v", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, fmt.Errorf("read from %s: %v", addr, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, nil
}

// reference computes the single-node ground truth for mod under tool.
func reference(t *testing.T, mod *obj.Module, tool string) []byte {
	t.Helper()
	f, err := core.AnalyzeModule(mod, newTool(tool))
	if err != nil {
		t.Fatal(err)
	}
	return f.Marshal()
}

// TestPeerFill is the tentpole acceptance path: a request landing on a
// non-owner is filled from the owning sibling (computed there, once),
// cached locally, and byte-identical to a single-node analysis. The
// second request is a pure local hit.
func TestPeerFill(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	mod := moduleOwnedBy(t, a.clu, b.addr)

	status, tier, body := post(t, a.addr, "jasan", mod)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if tier != string(anserve.TierPeer) {
		t.Fatalf("X-Cache = %q, want peer", tier)
	}
	if want := reference(t, mod, "jasan"); !bytes.Equal(body, want) {
		t.Fatal("peer-filled artifact differs from single-node analysis")
	}
	if got := a.clu.peerFills.Load(); got != 1 {
		t.Fatalf("peer fills on A = %d, want 1", got)
	}
	if got := a.svc.Stats().Sched.Analyzed; got != 0 {
		t.Fatalf("A computed %d analyses, want 0 (filled from B)", got)
	}
	if got := b.svc.Stats().Sched.Analyzed; got != 1 {
		t.Fatalf("B computed %d analyses, want exactly 1", got)
	}

	// Now resident locally: no second network hop.
	_, tier, body2 := post(t, a.addr, "jasan", mod)
	if tier != string(anserve.TierLocal) {
		t.Fatalf("second request X-Cache = %q, want local", tier)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("local re-serve differs from peer fill")
	}
	if got := a.clu.peerFills.Load(); got != 1 {
		t.Fatalf("local hit triggered another fill: %d", got)
	}
}

// TestOwnerComputesLocally: the home shard itself never peer-fills.
func TestOwnerComputesLocally(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a := nodes[0]
	mod := moduleOwnedBy(t, a.clu, a.addr)
	status, tier, body := post(t, a.addr, "jasan", mod)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if tier != string(anserve.TierMiss) {
		t.Fatalf("X-Cache = %q, want miss (owner computes)", tier)
	}
	if !bytes.Equal(body, reference(t, mod, "jasan")) {
		t.Fatal("owner-computed artifact differs from reference")
	}
	if got := a.clu.peerFills.Load(); got != 0 {
		t.Fatalf("owner peer-filled its own key: %d", got)
	}
}

// TestByteIdenticalAcrossFleet: every node of a 3-node fleet answers the
// same (module, tool) with exactly the same bytes as a single-node
// analysis, whichever tier served it, through POST /analyze and through
// POST /analyze/batch alike. Each pair goes to every node in turn, so the
// first non-owner to see it fills it from the owner: both paths must
// report peer-filled responses.
func TestByteIdenticalAcrossFleet(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	const modules = 8

	var peers int
	for i := 0; i < modules; i++ {
		mod := compileN(t, i)
		for _, tool := range fleetTools {
			want := reference(t, mod, tool)
			for _, node := range nodes {
				status, tier, body := post(t, node.addr, tool, mod)
				if status != http.StatusOK {
					t.Fatalf("%s %s on %s: status %d: %s", mod.Name, tool, node.addr, status, body)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("%s %s on %s: different bytes (tier %s)", mod.Name, tool, node.addr, tier)
				}
				if tier == string(anserve.TierPeer) {
					peers++
				}
			}
		}
	}
	if peers == 0 {
		t.Fatal("no /analyze response was peer-filled across a 3-node sweep")
	}

	// A fresh corpus, so the batches meet the fill path too.
	var batch anserve.BatchRequest
	var wants [][]byte
	for i := modules; i < 2*modules; i++ {
		mod := compileN(t, i)
		for _, tool := range fleetTools {
			batch.Requests = append(batch.Requests, anserve.BatchItem{Tool: tool, Module: mod.Marshal()})
			wants = append(wants, reference(t, mod, tool))
		}
	}
	peers = 0
	for _, node := range nodes {
		for i, res := range postBatch(t, node.addr, batch) {
			item := batch.Requests[i]
			if res.Error != nil {
				t.Fatalf("batch item %d (%s) on %s: %+v", i, item.Tool, node.addr, res.Error)
			}
			if !bytes.Equal(res.Rules, wants[i]) {
				t.Fatalf("batch item %d (%s %s) on %s: different bytes (tier %s)",
					i, res.Module, item.Tool, node.addr, res.Tier)
			}
			if res.Tier == string(anserve.TierPeer) {
				peers++
			}
		}
	}
	if peers == 0 {
		t.Fatal("no batch item was peer-filled across a 3-node sweep")
	}
}

// postBatch sends one POST /analyze/batch and returns its per-item
// results, failing the test unless the batch itself succeeded.
func postBatch(t *testing.T, addr string, req anserve.BatchRequest) []anserve.BatchResult {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("batch to %s: %v", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch to %s: status %d: %s", addr, resp.StatusCode, msg)
	}
	var br anserve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("batch to %s: %v", addr, err)
	}
	if len(br.Results) != len(req.Requests) {
		t.Fatalf("batch to %s: %d results for %d items", addr, len(br.Results), len(req.Requests))
	}
	return br.Results
}

// TestSingleflightCrossShard is the satellite concurrency test: many
// concurrent requests to a non-owner for a sibling-owned key must
// coalesce into ONE peer fill backed by ONE compute on the owner — no
// duplicate computes, no duplicate fetches, no deadlock. Run under -race
// by scripts/ci.sh.
func TestSingleflightCrossShard(t *testing.T) {
	gate := make(chan struct{})
	nodes := startFleet(t, 2, map[int]<-chan struct{}{1: gate})
	a, b := nodes[0], nodes[1]
	mod := moduleOwnedBy(t, a.clu, b.addr)

	const clients = 8
	tiers := make([]string, clients)
	bodies := make([][]byte, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], tiers[i], bodies[i] = post(t, a.addr, "jasan", mod)
		}(i)
	}
	// Hold B's compute open until all but the leader have coalesced on A.
	deadline := time.Now().Add(30 * time.Second)
	for a.clu.coalesced.Load() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %d", a.clu.coalesced.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if tiers[i] != string(anserve.TierPeer) {
			t.Fatalf("client %d: tier %q, want peer", i, tiers[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d: bytes differ", i)
		}
	}
	if got := a.clu.peerFills.Load(); got != 1 {
		t.Fatalf("peer fills = %d, want exactly 1 (singleflight hop one)", got)
	}
	if got := b.svc.Stats().Sched.Analyzed; got != 1 {
		t.Fatalf("owner computed %d times, want exactly 1 (singleflight hop two)", got)
	}
	if got := a.svc.Stats().Sched.Analyzed; got != 0 {
		t.Fatalf("non-owner computed %d times, want 0", got)
	}
	if !bytes.Equal(bodies[0], reference(t, mod, "jasan")) {
		t.Fatal("coalesced artifact differs from single-node analysis")
	}
}

// TestDegradesWhenPeerDies kills a shard owner mid-run: requests for its
// keys must keep succeeding via local compute (slower, never wrong, zero
// failures). In a 2-node fleet the dead sibling is demoted so later
// requests skip the network hop entirely; in a 3-node fleet a concurrent,
// Zipf-skewed hot mix over the survivors sees no failure at all.
func TestDegradesWhenPeerDies(t *testing.T) {
	t.Run("two-node", func(t *testing.T) {
		nodes := startFleet(t, 2, nil)
		a, b := nodes[0], nodes[1]
		mod1 := moduleOwnedBy(t, a.clu, b.addr)
		// A healthy fill first, proving the fleet was actually cooperating.
		if _, tier, _ := post(t, a.addr, "jasan", mod1); tier != string(anserve.TierPeer) {
			t.Fatalf("warmup tier = %q, want peer", tier)
		}

		b.kill(t)

		// A different B-owned module: the fill fails, A computes locally.
		var mod2 *obj.Module
		for i := 0; ; i++ {
			m := compileN(t, 1000+i)
			if a.clu.Owner(anserve.CacheKey(m, newTool("jasan"))) == b.addr {
				mod2 = m
				break
			}
		}
		status, tier, body := post(t, a.addr, "jasan", mod2)
		if status != http.StatusOK {
			t.Fatalf("request failed after owner death: %d", status)
		}
		if tier != string(anserve.TierMiss) {
			t.Fatalf("tier = %q, want miss (local compute fallback)", tier)
		}
		if !bytes.Equal(body, reference(t, mod2, "jasan")) {
			t.Fatal("fallback artifact differs from reference")
		}
		if a.clu.localFallback.Load() == 0 {
			t.Fatal("fallback not counted")
		}
		if a.clu.Healthy(b.addr) {
			t.Fatal("dead peer still marked healthy after failed fill")
		}

		// Demoted: the next B-owned miss goes straight to local compute
		// without growing the fill-error count.
		errsBefore := a.clu.peerFillErrs.Load()
		var mod3 *obj.Module
		for i := 0; ; i++ {
			m := compileN(t, 2000+i)
			if a.clu.Owner(anserve.CacheKey(m, newTool("jasan"))) == b.addr {
				mod3 = m
				break
			}
		}
		status, tier, _ = post(t, a.addr, "jasan", mod3)
		if status != http.StatusOK || tier != string(anserve.TierMiss) {
			t.Fatalf("post-demotion request: status %d tier %q", status, tier)
		}
		if got := a.clu.peerFillErrs.Load(); got != errsBefore {
			t.Fatalf("demoted peer still contacted: fill errors %d -> %d", errsBefore, got)
		}
	})

	t.Run("three-node-hot-mix", func(t *testing.T) {
		nodes := startFleet(t, 3, nil)
		corpus := make([]*obj.Module, 8)
		wants := make([][]byte, len(corpus))
		for i := range corpus {
			corpus[i] = compileN(t, 3000+i)
			wants[i] = reference(t, corpus[i], "jasan")
		}
		// Kill the owner of the hottest module, so the mix is sure to need
		// keys whose home shard is gone.
		dead := nodes[0].clu.Owner(anserve.CacheKey(corpus[0], newTool("jasan")))
		var survivors []*testNode
		for _, node := range nodes {
			if node.addr == dead {
				node.kill(t)
			} else {
				survivors = append(survivors, node)
			}
		}

		const requests, clients = 40, 4
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, uint64(len(corpus)-1))
		picks := make([]int, requests)
		for i := range picks {
			picks[i] = int(zipf.Uint64())
		}
		codes := make([]int, requests)
		bodies := make([][]byte, requests)
		errs := make([]error, requests)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < requests; i += clients {
					codes[i], _, bodies[i], errs[i] = analyze(
						survivors[i%len(survivors)].addr, "jasan", corpus[picks[i]])
				}
			}(c)
		}
		wg.Wait()

		for i, m := range picks {
			if errs[i] != nil {
				t.Fatalf("request %d (module %d): %v", i, m, errs[i])
			}
			if codes[i] != http.StatusOK {
				t.Fatalf("request %d (module %d): status %d: %s", i, m, codes[i], bodies[i])
			}
			if !bytes.Equal(bodies[i], wants[m]) {
				t.Fatalf("request %d (module %d): bytes differ from reference", i, m)
			}
		}
		var fallbacks uint64
		for _, node := range survivors {
			fallbacks += node.clu.localFallback.Load()
		}
		if fallbacks == 0 {
			t.Fatal("no request fell back to local compute for the dead owner's keys")
		}
	})
}

// TestHealthProbeRecovery drives the probe loop directly: a dead peer is
// demoted by probes, and a revived one is promoted again.
func TestHealthProbeRecovery(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a.clu.probeAll(ctx)
	if !a.clu.Healthy(b.addr) {
		t.Fatal("live peer probed unhealthy")
	}

	b.kill(t)
	a.clu.probeAll(ctx)
	if a.clu.Healthy(b.addr) {
		t.Fatal("dead peer probed healthy")
	}

	// Revive B's address with a fresh service.
	ln, err := net.Listen("tcp", b.addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", b.addr, err)
	}
	svc := anserve.New(anserve.Config{Workers: 1})
	d := anserve.NewDaemon(svc, anserve.DefaultTools())
	go d.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	}()
	a.clu.probeAll(ctx)
	if !a.clu.Healthy(b.addr) {
		t.Fatal("revived peer not promoted")
	}
}
