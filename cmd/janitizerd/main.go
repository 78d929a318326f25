// Command janitizerd is the long-lived analysis service: it serves
// Janitizer's static analyzer over HTTP, backed by a content-addressed rule
// cache and a concurrent scheduler, so a module (in particular a shared
// library) is analyzed once and its .jrw artifact is reused by every later
// request. With -peers it becomes one member of an analysis fleet:
// artifacts are consistent-hash-placed across the members and a local miss
// is filled from the owning sibling before being recomputed.
//
// Usage:
//
//	janitizerd [-addr host:port] [-cachedir dir] [-mem MiB] [-disk MiB]
//	           [-workers n] [-maxqueue n] [-maxbody MiB] [-timeout d]
//	           [-tenant-qps r] [-tenant-burst n]
//	           [-peers a:1,b:2,...] [-self host:port]
//	           [-debug] [-quiet]
//
// API:
//
//	POST /analyze?tool=<name>   any internal/registry name or alias with a
//	    static stage: jasan, jasan-base, jasan-scev, jcfi, jcfi-forward, jmsan,
//	    jmsan-elide, jtsan, jtsan-elide, jasan+jmsan, jlint, comprehensive, ...
//	    request body:  a serialized JEF module
//	    response body: the module's marshaled .jrw rule file
//	    (X-Cache: local|peer|miss says where the answer came from)
//	POST /analyze/batch
//	    JSON batch: {"requests":[{"tool":...,"module":<base64>},...]}
//	POST /run?tool=...
//	    analyze (through the cache/fleet), then execute the module and
//	    return structured, symbolized sanitizer violations
//	GET /violations
//	    the accumulated deduplicated violation log as JSON (byte-stable)
//	GET /stats
//	    cache, scheduler and violation-log counters as JSON
//	GET /metrics
//	    the same counters plus latency histograms (with trace-ID exemplars),
//	    janitizer_build_info, and (in fleet mode) the janitizer_cluster_*
//	    family, in Prometheus text format
//	GET /healthz, GET /readyz
//	    liveness / readiness (cache dir writable, scheduler accepting)
//	GET /trace?limit=N
//	    recent pipeline span trees as JSON, newest first
//	GET /trace/{id}
//	    one retained trace by ID (spans on this node only; cross-node
//	    segments are stitched by the requester from each node's export)
//	GET /debug/pprof/   (only with -debug)
//	    Go runtime profiling endpoints
//
// Every endpoint accepts a W3C Traceparent header and echoes the active
// trace ID in X-Trace-Id; peer fills forward the requester's trace context
// so one request yields one cross-node trace.
//
// Errors are typed JSON ({"error":{"code":...,"message":...}}): 413 for
// oversized bodies/batches, 429 with Retry-After for backpressure and
// tenant quotas (X-Tenant header), 504 for per-request timeouts.
//
// Fleet mode: -peers lists every member (self included, identical on all
// nodes) and -self names this node's address in that list (default:
// -addr). Placement is deterministic, health probes demote dead siblings,
// and a dead owner only costs latency — the request is computed locally.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes and
// in-flight analyses drain before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/anserve"
	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7741", "listen address")
	cachedir := flag.String("cachedir", "", "on-disk rule-cache directory (empty: memory only)")
	mem := flag.Int64("mem", 0, "memory cache budget in MiB (0: default, -1: disabled)")
	disk := flag.Int64("disk", 0, "on-disk cache cap in MiB (0: unbounded)")
	workers := flag.Int("workers", 0, "concurrent analyses (0: GOMAXPROCS)")
	maxqueue := flag.Int("maxqueue", 256, "admitted requests beyond the worker pool before 429 (0: unlimited)")
	maxbody := flag.Int64("maxbody", 0, "request body limit in MiB (0: default 64)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request analysis timeout (0: unbounded)")
	tenantQPS := flag.Float64("tenant-qps", 0, "per-tenant request rate (X-Tenant header; 0: no quotas)")
	tenantBurst := flag.Int("tenant-burst", 20, "per-tenant burst capacity")
	peers := flag.String("peers", "", "comma-separated fleet member list, self included (empty: single node)")
	self := flag.String("self", "", "this node's address in -peers (default: -addr)")
	debug := flag.Bool("debug", false, "serve net/http/pprof under /debug/pprof/")
	quiet := flag.Bool("quiet", false, "disable structured request logging")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("janitizerd"))
		return
	}

	// The daemon traces its pipeline: spans recorded during request
	// handling surface on GET /trace.
	telemetry.SetTracer(telemetry.NewTracer(256))

	memBytes := *mem
	if memBytes > 0 {
		memBytes <<= 20
	}
	svc := anserve.New(anserve.Config{
		Workers:        *workers,
		MemCacheBytes:  memBytes,
		CacheDir:       *cachedir,
		DiskCacheBytes: *disk << 20,
		MaxQueue:       *maxqueue,
	})
	// Deploy identity for fleet dashboards: join any janitizer_* series
	// against version/go/revision via janitizer_build_info.
	buildinfo.Register(svc.Registry())

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	handlerOpts := anserve.HandlerOpts{
		MaxBodyBytes: *maxbody << 20,
		Timeout:      *timeout,
		Quota:        anserve.NewTenantLimiter(*tenantQPS, *tenantBurst),
	}
	var clu *cluster.Cluster
	if *peers != "" {
		selfAddr := *self
		if selfAddr == "" {
			selfAddr = *addr
		}
		var err error
		clu, err = cluster.New(svc, cluster.Config{
			Self:    selfAddr,
			Members: strings.Split(*peers, ","),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "janitizerd:", err)
			os.Exit(1)
		}
		clu.Start(ctx)
		handlerOpts.Analyzer = clu
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	d := anserve.NewDaemonOpts(svc, anserve.DefaultTools(), anserve.DaemonOptions{
		Logger:  logger,
		Debug:   *debug,
		Handler: handlerOpts,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "janitizerd:", err)
		os.Exit(1)
	}
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "janitizerd: shutting down, draining in-flight requests")
		drainCtx, cancel := context.WithTimeout(context.Background(),
			anserve.DefaultDrainTimeout)
		defer cancel()
		if clu != nil {
			clu.Close()
		}
		if err := d.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "janitizerd: drain:", err)
		}
	}()

	if clu != nil {
		fmt.Printf("janitizerd: listening on %s (workers=%d, fleet of %d, self=%s)\n",
			ln.Addr(), svc.Workers(), len(clu.Ring().Members()), clu.Self())
	} else {
		fmt.Printf("janitizerd: listening on %s (workers=%d)\n",
			ln.Addr(), svc.Workers())
	}
	if err := d.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "janitizerd:", err)
		os.Exit(1)
	}
}
