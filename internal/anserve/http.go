package anserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obj"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// MaxModuleBytes bounds the request body accepted by POST /analyze.
const MaxModuleBytes = 64 << 20

// ToolFactory creates a fresh tool instance per analysis request, so
// request handling never shares mutable tool state (reports, runtime
// tables) across concurrent analyses. Instances from one factory must
// share the same name/ConfigKey.
type ToolFactory func() core.Tool

// DefaultTools returns the daemon's tools: every registry entry with a
// static stage, under its canonical name and each alias.
func DefaultTools() map[string]ToolFactory {
	tools := map[string]ToolFactory{}
	for _, e := range registry.All() {
		if !e.Static {
			continue
		}
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			tools[n] = e.New
		}
	}
	return tools
}

// HandlerOpts configures the service's HTTP API surface.
type HandlerOpts struct {
	// Analyzer serves the analysis requests; nil selects the Service
	// itself (single-node). A fleet member passes its cluster wrapper.
	Analyzer Analyzer
	// MaxBodyBytes bounds request bodies; 0 selects MaxModuleBytes.
	MaxBodyBytes int64
	// Timeout bounds each analysis request (and each batch item); an
	// expired request answers 504 while the analysis itself finishes in
	// the background and lands in the cache. 0 disables the bound.
	Timeout time.Duration
	// MaxBatch caps items per POST /analyze/batch; 0 selects
	// DefaultMaxBatch.
	MaxBatch int
	// BatchFanout bounds per-request concurrent batch items; 0 selects
	// DefaultBatchFanout.
	BatchFanout int
	// Quota rate-limits tenants (X-Tenant header); nil disables quotas.
	Quota *TenantLimiter
	// Diag is the violation log behind GET /violations, fed by POST /run
	// executions. Nil creates a fresh log per handler, so the endpoints
	// always work; daemons that want to inspect the log in-process pass
	// their own.
	Diag *diag.Log
	// RunMaxInstrs bounds POST /run executions; 0 selects
	// DefaultRunMaxInstrs.
	RunMaxInstrs uint64
}

// HandlerStats is GET /stats: the service snapshot plus the counters of
// the handler's violation log.
type HandlerStats struct {
	Stats
	Violations ViolationStats `json:"violations"`
}

// ViolationStats counts what the GET /violations log could not keep.
type ViolationStats struct {
	// Dropped counts distinct records turned away past diag.MaxRecords,
	// as janitizer_violations_dropped_total on GET /metrics.
	Dropped uint64 `json:"dropped"`
}

// PeerFillHeader marks fleet-internal cache-fill requests. A request
// carrying it is answered strictly from the local service — never
// re-forwarded (no forwarding loops) and never charged against a tenant
// quota (the originating ingress already was).
const PeerFillHeader = "X-Peer-Fill"

// Handler returns the service's HTTP API with default options:
//
//	POST /analyze?tool=<name>   body: serialized JEF module
//	                            response: marshaled .jrw rule file
//	POST /analyze/batch         JSON batch of the above
//	POST /run?tool=<name>       analyze + execute a module, recording
//	                            structured violation diagnostics
//	GET  /violations            deduplicated diag.Violation records (JSON,
//	                            byte-stable order)
//	GET  /stats                 cache, scheduler and violation-log counters
//	                            as JSON
//	GET  /metrics               Prometheus text exposition
//	GET  /trace?limit=N         recent traces, newest first
//	GET  /trace/{id}            one retained trace by trace ID
//	GET  /healthz, /readyz      liveness and readiness probes
//
// Every request accepts a W3C Traceparent header; traced responses echo
// the trace ID in X-Trace-Id.
func (s *Service) Handler(tools map[string]ToolFactory) http.Handler {
	return s.HandlerWith(tools, HandlerOpts{})
}

// analyzeResult carries one finished analysis out of its goroutine.
type analyzeResult struct {
	b    []byte
	tier Tier
	err  error
}

// goAnalyze runs one analysis in its own goroutine so the caller can give
// up waiting (per-request timeout) without cancelling the work: the result
// still lands in the cache, and release (the admission slot) fires when the
// work — not the wait — completes. ctx carries the request span only; it
// must not be the (cancellable) request context.
func goAnalyze(ctx context.Context, an Analyzer, toolName string, mod *obj.Module,
	tool core.Tool, release func()) <-chan analyzeResult {
	ch := make(chan analyzeResult, 1)
	go func() {
		defer release()
		b, tier, err := an.AnalyzeBytesTier(ctx, toolName, mod, tool)
		ch <- analyzeResult{b, tier, err}
	}()
	return ch
}

// startServerSpan begins the server half of a traced request: when the
// request carries a Traceparent header (a traced client or a peer fill)
// the new span joins that trace with the remote caller as its parent, so
// the requester can stitch both nodes' exports into one tree; otherwise it
// roots a fresh trace. A nil tracer yields a nil (inert) span.
func startServerSpan(tr *telemetry.Tracer, r *http.Request, name string,
	attrs ...telemetry.Attr) *telemetry.Span {
	if sc, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader)); ok {
		return tr.StartRemote(sc, name, attrs...)
	}
	return tr.Start(name, attrs...)
}

// awaitAnalyze waits for res up to timeout (0: forever). timedOut reports
// the wait expired with the analysis still running.
func awaitAnalyze(res <-chan analyzeResult, timeout time.Duration) (analyzeResult, bool) {
	if timeout <= 0 {
		return <-res, false
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-res:
		return r, false
	case <-t.C:
		return analyzeResult{}, true
	}
}

// HandlerWith returns the service's HTTP API with explicit options.
func (s *Service) HandlerWith(tools map[string]ToolFactory, opts HandlerOpts) http.Handler {
	an := opts.Analyzer
	if an == nil {
		an = s
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = MaxModuleBytes
	}

	diagLog := opts.Diag
	if diagLog == nil {
		diagLog = diag.NewLog()
	}
	// The first handler built on a service backs the series; a daemon
	// builds one.
	s.reg.CounterFunc("janitizer_violations_dropped_total",
		"Distinct violation records the GET /violations log turned away past its bound.",
		diagLog.Dropped)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("tool")
		peerFill := r.Header.Get(PeerFillHeader) != ""
		sp := startServerSpan(s.Tracer(), r, "http.analyze",
			telemetry.String("tool", name))
		defer sp.End()
		if id := sp.TraceID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		if peerFill {
			sp.SetAttr(telemetry.String("peer_fill", "1"))
		}
		fail := func(status int, code, msg string, retryAfterSec int) {
			sp.SetError(msg)
			writeError(w, status, code, msg, retryAfterSec)
		}
		factory, ok := tools[name]
		if !ok {
			var known []string
			for n := range tools {
				known = append(known, n)
			}
			sort.Strings(known)
			fail(http.StatusBadRequest, ErrCodeUnknownTool,
				fmt.Sprintf("unknown tool %q (have %v)", name, known), 0)
			return
		}
		if !peerFill {
			if ok, wait := opts.Quota.Allow(r.Header.Get("X-Tenant"), 1); !ok {
				fail(http.StatusTooManyRequests, ErrCodeQuotaExceeded,
					"tenant quota exceeded", retryAfterSeconds(wait))
				return
			}
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				fail(http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", maxBody), 0)
				return
			}
			fail(http.StatusBadRequest, ErrCodeBadRequest,
				"read body: "+err.Error(), 0)
			return
		}
		mod, err := obj.Unmarshal(body)
		if err != nil {
			fail(http.StatusBadRequest, ErrCodeBadModule,
				"bad module: "+err.Error(), 0)
			return
		}
		sp.SetAttr(telemetry.String("module", mod.Name))
		if !s.TryAdmit(1) {
			fail(http.StatusTooManyRequests, ErrCodeOverloaded,
				"scheduler queue full", 1)
			return
		}
		sp.AddEvent("admitted")
		reqAn := an
		if peerFill {
			reqAn = s // peer fills are terminal: never re-forwarded
		}
		// The analysis outlives an abandoned wait, so it carries a detached
		// context holding only the request span — never r.Context().
		actx := telemetry.ContextWithSpan(context.Background(), sp)
		res, timedOut := awaitAnalyze(
			goAnalyze(actx, reqAn, name, mod, factory(), func() { s.Finish(1) }),
			opts.Timeout)
		if timedOut {
			fail(http.StatusGatewayTimeout, ErrCodeTimeout,
				fmt.Sprintf("analysis exceeded %s (still running; retry to hit the cache)",
					opts.Timeout), 0)
			return
		}
		if res.err != nil {
			fail(http.StatusInternalServerError, ErrCodeAnalysisFailed,
				res.err.Error(), 0)
			return
		}
		sp.SetAttr(telemetry.String("tier", string(res.tier)))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Module", mod.Name)
		w.Header().Set("X-Cache", string(res.tier))
		_, _ = w.Write(res.b)
	})
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, tools, an, opts, maxBody, diagLog)
	})
	mux.HandleFunc("GET /violations", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(diagLog)
	})
	mux.HandleFunc("POST /analyze/batch", func(w http.ResponseWriter, r *http.Request) {
		s.handleBatch(w, r, tools, an, opts, maxBody)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		var reasons []string
		if err := s.DiskReady(); err != nil {
			reasons = append(reasons, "cache dir not writable: "+err.Error())
		}
		if !s.Accepting() {
			reasons = append(reasons, "scheduler queue full")
		}
		w.Header().Set("Content-Type", "application/json")
		if len(reasons) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"status": "unready", "reasons": reasons,
			})
			return
		}
		_, _ = io.WriteString(w, "{\"status\":\"ready\"}\n")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(HandlerStats{Stats: s.Stats(),
			Violations: ViolationStats{Dropped: diagLog.Dropped()}})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
					fmt.Sprintf("bad limit %q", v), 0)
				return
			}
			limit = n
		}
		recent := s.Tracer().Snapshot(limit)
		if recent == nil {
			recent = []*telemetry.SpanRecord{} // tracer disabled: empty array, not null
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(recent)
	})
	mux.HandleFunc("GET /trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rec := s.Tracer().Find(id)
		if rec == nil {
			writeError(w, http.StatusNotFound, ErrCodeNotFound,
				fmt.Sprintf("no retained trace %q on this node", id), 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rec)
	})
	return mux
}

// Daemon wraps the service handler in an http.Server with graceful
// shutdown: Shutdown stops accepting connections and drains in-flight
// requests before returning.
type Daemon struct {
	Service *Service
	srv     *http.Server
}

// DaemonOptions configures optional daemon behaviour.
type DaemonOptions struct {
	// Logger enables structured request logging (one slog line per request
	// with a process-unique request id). Nil disables logging.
	Logger *slog.Logger
	// Debug mounts net/http/pprof under /debug/pprof/.
	Debug bool
	// Handler configures the API surface (analyzer routing, body limits,
	// timeouts, batch bounds, quotas).
	Handler HandlerOpts
}

// NewDaemon returns a daemon serving svc through the given tool registry.
func NewDaemon(svc *Service, tools map[string]ToolFactory) *Daemon {
	return NewDaemonOpts(svc, tools, DaemonOptions{})
}

// NewDaemonOpts returns a daemon with request logging and debug endpoints
// configured.
func NewDaemonOpts(svc *Service, tools map[string]ToolFactory, opts DaemonOptions) *Daemon {
	h := svc.HandlerWith(tools, opts.Handler)
	if opts.Debug {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		h = mux
	}
	if opts.Logger != nil {
		h = requestLog(opts.Logger, h)
	}
	return &Daemon{
		Service: svc,
		srv:     &http.Server{Handler: h},
	}
}

// reqSeq numbers requests across all daemons in the process.
var reqSeq atomic.Uint64

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// requestLog wraps next with structured per-request logging: each request
// gets a process-unique id, echoed back in the X-Request-Id header and
// attached to the log line alongside method, path, status, size and
// duration.
func requestLog(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%d", reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", time.Since(start),
			"remote", r.RemoteAddr,
		)
	})
}

// Serve accepts connections on ln until Shutdown. Returns nil after a
// graceful shutdown.
func (d *Daemon) Serve(ln net.Listener) error {
	err := d.srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops the daemon, draining in-flight requests until
// ctx expires.
func (d *Daemon) Shutdown(ctx context.Context) error {
	return d.srv.Shutdown(ctx)
}

// DefaultDrainTimeout bounds how long cmd/janitizerd waits for in-flight
// analyses on SIGINT before giving up the drain.
const DefaultDrainTimeout = 30 * time.Second
