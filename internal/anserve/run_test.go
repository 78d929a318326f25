package anserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cc"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// buggyModule compiles a program with a one-byte heap overflow jasan must
// trap.
func buggyModule(t *testing.T) []byte {
	t.Helper()
	mod, err := cc.Compile(`
int main() {
    char *buf = malloc(16);
    for (int i = 0; i < 16; i++) buf[i] = i & 127;
    buf[18] = 7;
    int s = buf[0] + buf[8];
    free(buf);
    return s & 63;
}
`, cc.Options{Module: "runbug", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	return mod.Marshal()
}

// TestRunEndpointStructuredViolations is the acceptance path for the diag
// layer: POST /run executes the module, and the response (and GET
// /violations) carry structured, symbolized, CWE-classified records tied to
// the request's trace.
func TestRunEndpointStructuredViolations(t *testing.T) {
	tr := telemetry.NewTracer(16)
	svc := New(Config{Workers: 2, Tracer: tr})
	dlog := diag.NewLog()
	h := svc.HandlerWith(DefaultTools(), HandlerOpts{Diag: dlog})

	w := doReq(t, h, "POST", "/run?tool=jasan", buggyModule(t))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /run: %d: %s", w.Code, w.Body.String())
	}
	traceID := w.Header().Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("traced daemon did not echo X-Trace-Id on /run")
	}
	var resp RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("run response not JSON: %v", err)
	}
	if resp.Module != "runbug" || resp.Tool != "jasan" {
		t.Fatalf("module/tool = %q/%q", resp.Module, resp.Tool)
	}
	if resp.Tier != string(TierMiss) {
		t.Fatalf("first run tier = %q, want miss", resp.Tier)
	}
	if resp.Instrs == 0 || resp.Cycles == 0 {
		t.Fatal("run reported zero instrs/cycles")
	}
	if len(resp.Violations) != 1 {
		t.Fatalf("violations = %+v, want exactly 1", resp.Violations)
	}
	v := resp.Violations[0]
	if v.Tool != "jasan" || v.Kind != "heap-buffer-overflow" || v.CWE != "CWE-122" {
		t.Fatalf("violation classification: %+v", v)
	}
	if v.Func != "main" || v.Module != "runbug" {
		t.Fatalf("violation not symbolized to main[runbug]: %+v", v)
	}
	if v.Rule != "MEM_ACCESS" || v.CostCenter != "mem-check" {
		t.Fatalf("rule attribution: %+v", v)
	}
	if v.TraceID != traceID || resp.TraceID != traceID {
		t.Fatalf("violation trace = %q response trace = %q, want %q",
			v.TraceID, resp.TraceID, traceID)
	}
	if v.ID == "" || v.Count != 1 {
		t.Fatalf("identity fields: %+v", v)
	}

	// The trace the violation references is resolvable on this node.
	w = doReq(t, h, "GET", "/trace/"+traceID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /trace/%s: %d", traceID, w.Code)
	}
	var root telemetry.SpanRecord
	if err := json.Unmarshal(w.Body.Bytes(), &root); err != nil {
		t.Fatal(err)
	}
	if root.Name != "http.run" || root.TraceID != traceID {
		t.Fatalf("trace root = %s/%s", root.Name, root.TraceID)
	}

	// GET /violations serves the accumulated log, byte-stable.
	w = doReq(t, h, "GET", "/violations", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /violations: %d", w.Code)
	}
	var served []diag.Violation
	if err := json.Unmarshal(w.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	if len(served) != 1 || served[0].ID != v.ID {
		t.Fatalf("GET /violations = %+v, want the run's record", served)
	}

	// A second identical run dedups into the same record and serves the
	// analysis from cache.
	w = doReq(t, h, "POST", "/run?tool=jasan", buggyModule(t))
	var resp2 RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Tier != string(TierLocal) {
		t.Fatalf("second run tier = %q, want local", resp2.Tier)
	}
	if dlog.Len() != 1 || dlog.Total() != 2 {
		t.Fatalf("dedup after second run: len=%d total=%d, want 1/2", dlog.Len(), dlog.Total())
	}
}

// TestRunEndpointCleanModule: a well-behaved program reports no violations
// and its exit status round-trips.
func TestRunEndpointCleanModule(t *testing.T) {
	svc := New(Config{Workers: 2})
	h := svc.Handler(DefaultTools())
	mod, err := cc.Compile(`
int main() {
    char *buf = malloc(8);
    buf[7] = 41;
    int s = buf[7] + 1;
    free(buf);
    return s;
}
`, cc.Options{Module: "runclean", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	w := doReq(t, h, "POST", "/run?tool=jasan", mod.Marshal())
	if w.Code != http.StatusOK {
		t.Fatalf("POST /run: %d: %s", w.Code, w.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Violations) != 0 {
		t.Fatalf("clean module reported %+v", resp.Violations)
	}
	if resp.ExitStatus != 42 {
		t.Fatalf("exit status = %d, want 42", resp.ExitStatus)
	}
	if resp.RunError != "" {
		t.Fatalf("run error = %q", resp.RunError)
	}
}

// TestRunEndpointErrors covers the /run request-validation surface, and
// that a run failing after admission gives its admission slot back.
func TestRunEndpointErrors(t *testing.T) {
	svc := New(Config{Workers: 1, MaxQueue: 1}) // admit limit = 2
	h := svc.Handler(DefaultTools())

	w := doReq(t, h, "POST", "/run?tool=nope", []byte("x"))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), ErrCodeUnknownTool) {
		t.Fatalf("unknown tool: %d %s", w.Code, w.Body.String())
	}
	// jlint produces analysis artifacts, not executable rule files.
	w = doReq(t, h, "POST", "/run?tool=jlint", []byte("x"))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), ErrCodeBadRequest) {
		t.Fatalf("artifact tool: %d %s", w.Code, w.Body.String())
	}
	w = doReq(t, h, "POST", "/run?tool=jasan", []byte("not a module"))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), ErrCodeBadModule) {
		t.Fatalf("bad module: %d %s", w.Code, w.Body.String())
	}

	// A module needing a library the daemon does not have is admitted and
	// analyzed, then fails to load. More such runs than the admission
	// window holds must each release their slot, or the clean run after
	// them would answer 429.
	missing, err := asm.Assemble(`
.module needsmissing
.entry _start
.needs nosuch.jef
.section .text
_start:
    mov r1, 0
    mov r0, 1
    syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w = doReq(t, h, "POST", "/run?tool=jasan", missing.Marshal())
		if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), ErrCodeRunFailed) {
			t.Fatalf("load failure %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if w = doReq(t, h, "POST", "/run?tool=jasan", floodModule(t, 1)); w.Code != http.StatusOK {
		t.Fatalf("clean run after failed runs: %d %s", w.Code, w.Body.String())
	}
	if got := svc.admitCur.Load(); got != 0 {
		t.Fatalf("%d admission slots held after every run finished", got)
	}
}

// TestTraceByIDNotFound: an unknown (or malformed) trace ID is a typed 404.
func TestTraceByIDNotFound(t *testing.T) {
	tr := telemetry.NewTracer(4)
	svc := New(Config{Workers: 1, Tracer: tr})
	h := svc.Handler(DefaultTools())
	w := doReq(t, h, "GET", "/trace/0af7651916cd43dd8448eb211c80319c", nil)
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), ErrCodeNotFound) {
		t.Fatalf("unknown trace: %d %s", w.Code, w.Body.String())
	}
}

// TestTraceLimitValidation: /trace?limit=N must honor the limit and reject
// junk.
func TestTraceLimitValidation(t *testing.T) {
	tr := telemetry.NewTracer(16)
	svc := New(Config{Workers: 1, Tracer: tr})
	h := svc.Handler(DefaultTools())
	for i := 0; i < 3; i++ {
		sp := tr.Start("warm")
		sp.End()
	}
	w := doReq(t, h, "GET", "/trace?limit=2", nil)
	var spans []*telemetry.SpanRecord
	if err := json.Unmarshal(w.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("limit=2 returned %d spans", len(spans))
	}
	w = doReq(t, h, "GET", "/trace?limit=bogus", nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bogus limit: %d", w.Code)
	}
}

// floodModule assembles a program that writes n bytes from heap pages it
// never touched, then exits 0.
func floodModule(t *testing.T, n uint64) []byte {
	t.Helper()
	mod, err := asm.Assemble(fmt.Sprintf(`
.module flood
.entry _start
.section .text
_start:
    mov r0, %d
    mov r1, 1
    mov r2, %d
    mov r3, %d
    syscall
    mov r0, %d
    mov r1, 0
    syscall
`, isa.SysWrite, isa.LayoutHeapBase, n, isa.SysExit))
	if err != nil {
		t.Fatal(err)
	}
	return mod.Marshal()
}

// TestRunOutputBoundedWhileRunning: a guest that writes 256 MiB gets the
// first maxRunOutput bytes back, and the daemon stops taking its output
// there instead of buffering all of it and cutting it after the run.
func TestRunOutputBoundedWhileRunning(t *testing.T) {
	svc := New(Config{Workers: 2})
	h := svc.Handler(DefaultTools())
	// A warm-up run analyzes libj, so the measured run allocates only for
	// its own module.
	if w := doReq(t, h, "POST", "/run?tool=jasan", floodModule(t, 100)); w.Code != http.StatusOK {
		t.Fatalf("warm-up POST /run: %d: %s", w.Code, w.Body.String())
	}
	body := floodModule(t, 256<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := doReq(t, h, "POST", "/run?tool=jasan", body)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /run: %d: %s", w.Code, w.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Output) != maxRunOutput {
		t.Fatalf("output = %d bytes, want %d", len(resp.Output), maxRunOutput)
	}
	if resp.ExitStatus != 0 || resp.RunError != "" {
		t.Fatalf("exit status %d, run error %q", resp.ExitStatus, resp.RunError)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 16<<20 {
		t.Fatalf("the run allocated %d MiB for 64 KiB of output", grown>>20)
	}
}
