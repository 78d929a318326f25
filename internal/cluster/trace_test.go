package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/anserve"
	"repro/internal/telemetry"
)

// findSpan walks a span tree depth-first for the first span named name.
func findSpan(rec *telemetry.SpanRecord, name string) *telemetry.SpanRecord {
	if rec == nil {
		return nil
	}
	if rec.Name == name {
		return rec
	}
	for _, c := range rec.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

// TestPeerFillSingleConnectedTrace is the tentpole tracing acceptance test:
// a traced client request to a non-owner node must knit the requester hop,
// the peer-fill hop, and the owner's compute into ONE trace whose exported
// span records stitch into a single connected tree by (TraceID, ParentID).
func TestPeerFillSingleConnectedTrace(t *testing.T) {
	nodes := startFleet(t, 3, nil)
	a, b := nodes[0], nodes[1]
	mod := moduleOwnedBy(t, a.clu, b.addr)

	// The client is itself traced: its span context travels in the
	// Traceparent header, exactly as a traced CI driver would send it.
	clientSC := telemetry.SpanContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Sampled: true,
	}
	req, err := http.NewRequest("POST",
		"http://"+a.addr+"/analyze?tool=jasan", bytes.NewReader(mod.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(clientSC))
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if tier := resp.Header.Get("X-Cache"); tier != string(anserve.TierPeer) {
		t.Fatalf("X-Cache = %q, want peer", tier)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != clientSC.TraceID {
		t.Fatalf("X-Trace-Id = %q, want the client's trace %q", got, clientSC.TraceID)
	}

	// Node A's half: a remote-parented server span rooted at the client's
	// span, with the peer fill as a child.
	aRoot := a.tr.Find(clientSC.TraceID)
	if aRoot == nil {
		t.Fatalf("node A retains no trace %s", clientSC.TraceID)
	}
	if aRoot.Name != "http.analyze" || !aRoot.Remote || aRoot.ParentID != clientSC.SpanID {
		t.Fatalf("A root = %s remote=%v parent=%s, want http.analyze under client span %s",
			aRoot.Name, aRoot.Remote, aRoot.ParentID, clientSC.SpanID)
	}
	fill := findSpan(aRoot, "cluster.peer-fill")
	if fill == nil {
		t.Fatalf("node A trace has no cluster.peer-fill span: %+v", aRoot)
	}
	if fill.TraceID != clientSC.TraceID || fill.ParentID != aRoot.SpanID {
		t.Fatalf("peer-fill span not parented under A's server span: %+v", fill)
	}

	// Node B's half: its server span joined the same trace with A's
	// peer-fill span as its remote parent — the cross-node stitch point.
	bRoot := b.tr.Find(clientSC.TraceID)
	if bRoot == nil {
		t.Fatalf("node B retains no trace %s", clientSC.TraceID)
	}
	if bRoot.Name != "http.analyze" || !bRoot.Remote {
		t.Fatalf("B root = %s remote=%v", bRoot.Name, bRoot.Remote)
	}
	if bRoot.ParentID != fill.SpanID {
		t.Fatalf("B's server span parent = %s, want A's peer-fill span %s",
			bRoot.ParentID, fill.SpanID)
	}
	if findSpan(bRoot, "anserve.analyze") == nil {
		t.Fatalf("owner's compute span missing from B's trace: %+v", bRoot)
	}

	// Both halves are resolvable over HTTP by the shared trace ID, so a
	// requester can stitch the full tree from each node's export.
	for _, node := range []*testNode{a, b} {
		hr, err := testClient.Get("http://" + node.addr + "/trace/" + clientSC.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("GET /trace/{id} on %s: %d", node.addr, hr.StatusCode)
		}
		var rec telemetry.SpanRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("trace export on %s not JSON: %v", node.addr, err)
		}
		if rec.TraceID != clientSC.TraceID {
			t.Fatalf("exported trace on %s = %s", node.addr, rec.TraceID)
		}
	}

	// An untraced node (C) never saw the request and answers 404.
	hr, err := testClient.Get("http://" + nodes[2].addr + "/trace/" + clientSC.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("uninvolved node served the trace: %d", hr.StatusCode)
	}
}

// TestFleetMetricsRoundTrip scrapes a live fleet member's /metrics through
// ParsePrometheus: the exposition (including build info and exemplar-bearing
// peer-fill histograms) must be valid text format and carry the expected
// families.
func TestFleetMetricsRoundTrip(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]

	// Drive a peer fill under a known trace so the fill-latency histogram
	// carries a trace-ID exemplar.
	sc := telemetry.SpanContext{
		TraceID: "7cf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "11f067aa0ba902b7",
		Sampled: true,
	}
	mod := moduleOwnedBy(t, a.clu, b.addr)
	req, err := http.NewRequest("POST",
		"http://"+a.addr+"/analyze?tool=jasan", bytes.NewReader(mod.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceparentHeader, telemetry.FormatTraceparent(sc))
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup analyze: %d", resp.StatusCode)
	}

	mr, err := testClient.Get("http://" + a.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mr.StatusCode)
	}
	samples, err := telemetry.ParsePrometheus(text)
	if err != nil {
		t.Fatalf("live /metrics does not round-trip through ParsePrometheus: %v\n%s", err, text)
	}

	byName := map[string][]telemetry.Sample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	bi := byName["janitizer_build_info"]
	if len(bi) != 1 || bi[0].Value != 1 {
		t.Fatalf("janitizer_build_info = %+v, want one constant-1 sample", bi)
	}
	for _, label := range []string{"version", "go_version", "revision"} {
		if bi[0].Label(label) == "" {
			t.Fatalf("build info lacks %s label: %+v", label, bi[0].Labels)
		}
	}
	if fills := byName["janitizer_cluster_peer_fill_total"]; len(fills) != 1 || fills[0].Value < 1 {
		t.Fatalf("peer fill counter = %+v", fills)
	}
	var exemplared bool
	for _, s := range byName["janitizer_cluster_peer_fill_duration_seconds_bucket"] {
		if s.Exemplar != nil {
			exemplared = true
			if got := s.Exemplar["trace_id"]; got != sc.TraceID {
				t.Fatalf("fill exemplar trace = %q, want %q", got, sc.TraceID)
			}
		}
	}
	if !exemplared {
		t.Fatal("peer-fill histogram carries no trace exemplar")
	}
}
