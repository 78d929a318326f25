package cluster

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/anserve"
	"repro/internal/jlint"
	"repro/internal/obj"
)

// postJLint sends one jlint analysis request.
func postJLint(t *testing.T, addr string, mod *obj.Module) (int, string, []byte) {
	t.Helper()
	resp, err := testClient.Post("http://"+addr+"/analyze?tool=jlint",
		"application/octet-stream", bytes.NewReader(mod.Marshal()))
	if err != nil {
		t.Fatalf("post to %s: %v", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

// jlintOwnedBy finds a module whose jlint cache key lands on owner.
func jlintOwnedBy(t *testing.T, clu *Cluster, owner string) *obj.Module {
	t.Helper()
	for i := 0; i < 256; i++ {
		mod := compileN(t, i)
		if clu.Owner(anserve.CacheKey(mod, jlint.New())) == owner {
			return mod
		}
	}
	t.Fatalf("no test module hashes to %s", owner)
	return nil
}

// TestPeerFillJLintArtifact: jlint reports ride the same peer-fill path as
// rule files, with the ArtifactTool validation branch — the filled bytes
// must be the byte-exact single-node report.
func TestPeerFillJLintArtifact(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	mod := jlintOwnedBy(t, a.clu, b.addr)

	status, tier, body := postJLint(t, a.addr, mod)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if tier != string(anserve.TierPeer) {
		t.Fatalf("X-Cache = %q, want peer", tier)
	}
	rep, err := jlint.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, rep.Marshal()) {
		t.Fatal("peer-filled report differs from a local analysis")
	}
	if err := jlint.New().ValidateArtifact(mod, body); err != nil {
		t.Fatalf("peer-filled report fails validation: %v", err)
	}
}

// TestPeerFillRejectsCorruptJLintArtifact: a corrupt artifact in the
// owner's cache must fail the filler's validation and degrade to local
// compute — never serve the corrupt bytes.
func TestPeerFillRejectsCorruptJLintArtifact(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	mod := jlintOwnedBy(t, a.clu, b.addr)

	key := anserve.CacheKey(mod, jlint.New())
	b.svc.CacheInsert(key, []byte(`{"version": 1, "corrupt": true}`))

	status, tier, body := postJLint(t, a.addr, mod)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if tier == string(anserve.TierPeer) {
		t.Fatal("corrupt peer artifact was served as a peer fill")
	}
	if err := jlint.New().ValidateArtifact(mod, body); err != nil {
		t.Fatalf("fallback response fails validation: %v", err)
	}
	if got := a.svc.Stats().Sched.Analyzed; got != 1 {
		t.Fatalf("requester computed %d analyses, want 1 (local fallback)", got)
	}
}

// TestJLintDeterministicAcrossFleet: every node serves byte-identical
// jlint reports regardless of tier, mirroring the rule-file guarantee.
func TestJLintDeterministicAcrossFleet(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	for i := 0; i < 4; i++ {
		mod := compileN(t, i)
		rep, err := jlint.Analyze(mod)
		if err != nil {
			t.Fatal(err)
		}
		want := rep.Marshal()
		for _, node := range nodes {
			status, tier, body := postJLint(t, node.addr, mod)
			if status != http.StatusOK {
				t.Fatalf("node %s: status %d", node.addr, status)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("node %s served different report bytes (tier %s)",
					node.addr, tier)
			}
		}
	}
}
