package anserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// DefaultRunMaxInstrs bounds POST /run executions when HandlerOpts leaves
// RunMaxInstrs at zero: generous enough for every harness workload, small
// enough that a runaway module cannot pin a daemon.
const DefaultRunMaxInstrs = 50_000_000

// maxRunOutput caps the program output echoed back in a RunResponse.
const maxRunOutput = 1 << 16

// errOutputFull ends a guest write once the run's output is full.
var errOutputFull = errors.New("anserve: run output exceeds the response cap")

// runOutput keeps the first maxRunOutput bytes a run writes and fails
// every write past them, so the machine stops streaming a guest-chosen
// length the response could not carry anyway. The guest still sees its
// full count returned.
type runOutput struct{ buf []byte }

func (o *runOutput) Write(p []byte) (int, error) {
	room := maxRunOutput - len(o.buf)
	if len(p) > room {
		o.buf = append(o.buf, p[:room]...)
		return room, errOutputFull
	}
	o.buf = append(o.buf, p...)
	return len(p), nil
}

// RunResponse is the POST /run reply: the module was analyzed (through the
// shared analyzer, so cache tiers and peer fills apply), executed under the
// requested tool, and its sanitizer reports collected into the daemon's
// violation log. Violations holds the structured records this run produced
// (deduplicated, symbolized, stamped with the request's trace context);
// the full accumulated log is at GET /violations.
type RunResponse struct {
	Module     string           `json:"module"`
	Tool       string           `json:"tool"`
	Tier       string           `json:"tier"`
	ExitStatus int64            `json:"exit_status"`
	Cycles     uint64           `json:"cycles"`
	Instrs     uint64           `json:"instrs"`
	RunError   string           `json:"run_error,omitempty"`
	Output     string           `json:"output,omitempty"`
	TraceID    string           `json:"trace_id,omitempty"`
	Violations []diag.Violation `json:"violations"`
}

// handleRun serves POST /run?tool=...: analyze the posted module (and its
// libj dependency) through the analyzer — so rules come from the local
// cache, a peer fill, or a fresh analysis exactly as /analyze would — then
// load and execute it under the tool and convert the trap reports into
// structured violations.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request,
	tools map[string]ToolFactory, an Analyzer, opts HandlerOpts,
	maxBody int64, diagLog *diag.Log) {

	name := r.URL.Query().Get("tool")
	sp := startServerSpan(s.Tracer(), r, "http.run",
		telemetry.String("tool", name))
	defer sp.End()
	if id := sp.TraceID(); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	fail := func(status int, code, msg string, retryAfterSec int) {
		sp.SetError(msg)
		writeError(w, status, code, msg, retryAfterSec)
	}

	factory, ok := tools[name]
	if !ok {
		fail(http.StatusBadRequest, ErrCodeUnknownTool,
			fmt.Sprintf("unknown tool %q", name), 0)
		return
	}
	tool := factory()
	if _, isArtifact := tool.(core.ArtifactTool); isArtifact {
		fail(http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Sprintf("tool %q produces analysis artifacts, not executable rules", name), 0)
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		fail(http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
			fmt.Sprintf("module exceeds %d bytes", maxBody), 0)
		return
	}
	mod, err := obj.Unmarshal(body)
	if err != nil {
		fail(http.StatusBadRequest, ErrCodeBadModule,
			"bad module: "+err.Error(), 0)
		return
	}
	sp.SetAttr(telemetry.String("module", mod.Name))

	if ok, wait := opts.Quota.Allow(r.Header.Get("X-Tenant"), 1); !ok {
		fail(http.StatusTooManyRequests, ErrCodeQuotaExceeded,
			"tenant quota exceeded", retryAfterSeconds(wait))
		return
	}
	if !s.TryAdmit(1) {
		fail(http.StatusTooManyRequests, ErrCodeOverloaded,
			"scheduler queue full", 1)
		return
	}
	sp.AddEvent("admitted")

	// Analyze the program and its libj dependency through the analyzer so
	// the rules ride the cache/peer-fill path and land in this trace. The
	// span context is detached from the request context: the analysis
	// completes (and caches) even if the requester gives up.
	actx := telemetry.ContextWithSpan(context.Background(), sp)
	lj, err := libj.Module()
	if err != nil {
		s.Finish(1)
		fail(http.StatusInternalServerError, ErrCodeRunFailed,
			"libj: "+err.Error(), 0)
		return
	}
	files := map[string]*rules.File{}
	var mainTier Tier
	for _, dep := range []*obj.Module{mod, lj} {
		res, timedOut := awaitAnalyze(
			goAnalyze(actx, an, name, dep, factory(), func() {}),
			opts.Timeout)
		if timedOut {
			s.Finish(1)
			fail(http.StatusGatewayTimeout, ErrCodeTimeout,
				fmt.Sprintf("analysis exceeded %s", opts.Timeout), 0)
			return
		}
		if res.err != nil {
			s.Finish(1)
			fail(http.StatusInternalServerError, ErrCodeAnalysisFailed,
				res.err.Error(), 0)
			return
		}
		f, err := rules.Unmarshal(res.b)
		if err != nil {
			s.Finish(1)
			fail(http.StatusInternalServerError, ErrCodeAnalysisFailed,
				"bad rules for "+dep.Name+": "+err.Error(), 0)
			return
		}
		files[dep.Name] = f
		if dep == mod {
			mainTier = res.tier
		}
	}
	sp.SetAttr(telemetry.String("tier", string(mainTier)))
	sp.AddEvent("analysis-complete")

	maxInstrs := opts.RunMaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultRunMaxInstrs
	}
	var out runOutput
	sess, err := core.Load(mod, loader.Registry{libj.Name: lj}, tool, files,
		core.Options{MaxInstrs: maxInstrs, Out: &out})
	if err != nil {
		s.Finish(1)
		fail(http.StatusInternalServerError, ErrCodeRunFailed,
			"load: "+err.Error(), 0)
		return
	}
	runErr := sess.Run()
	m := sess.M
	s.Finish(1)
	sp.AddEvent("run-complete",
		telemetry.Int("instrs", int64(m.Instrs)))
	if runErr != nil {
		// A trapped violation may abort the run after the sanitizer
		// reported; the reports gathered so far still count, so this is
		// recorded, not a request failure.
		sp.SetAttr(telemetry.String("run_error", runErr.Error()))
	}

	// Convert the trap reports into structured, symbolized violations.
	// Collect into a scratch log first so the response can carry exactly
	// this run's findings, then merge into the daemon-wide log behind
	// GET /violations.
	runLog := diag.NewLog()
	diag.Collect(runLog, tool, diag.NewProcessSymbolizer(sess.Proc), sp.Context())
	found := runLog.Entries()
	if found == nil {
		found = []diag.Violation{}
	}
	for _, v := range found {
		diagLog.Add(v)
	}
	sp.SetAttr(telemetry.Int("violations", int64(len(found))))

	resp := RunResponse{
		Module:     mod.Name,
		Tool:       name,
		Tier:       string(mainTier),
		ExitStatus: m.ExitStatus,
		Cycles:     m.Cycles,
		Instrs:     m.Instrs,
		Output:     string(out.buf),
		TraceID:    sp.TraceID(),
		Violations: found,
	}
	if runErr != nil {
		resp.RunError = runErr.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
