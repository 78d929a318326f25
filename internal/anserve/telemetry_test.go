package anserve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/jasan"
	"repro/internal/telemetry"
)

// doReq runs one request through the service handler and returns the
// recorder.
func doReq(t *testing.T, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestStatsJSONShape is the regression guard for satellite (3): the /stats
// payload must keep its exact field names — external dashboards parse it —
// even though the same counters now also surface on /metrics.
func TestStatsJSONShape(t *testing.T) {
	svc := New(Config{Workers: 2})
	if _, err := svc.AnalyzeModuleBytes(testModule(t),
		jasan.New(jasan.Config{UseLiveness: true})); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler(DefaultTools())
	w := doReq(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /stats: %d", w.Code)
	}
	var payload map[string]map[string]json.Number
	if err := json.Unmarshal(w.Body.Bytes(), &payload); err != nil {
		t.Fatalf("stats not a two-level JSON object: %v", err)
	}
	want := map[string][]string{
		"cache": {"mem_hits", "mem_misses", "disk_hits", "disk_misses",
			"evictions", "puts", "mem_bytes", "mem_entries",
			"disk_evictions", "disk_corrupt"},
		"scheduler": {"submitted", "coalesced", "cache_hits", "analyzed",
			"errors", "rejected", "workers"},
		"violations": {"dropped"},
	}
	for section, fields := range want {
		got, ok := payload[section]
		if !ok {
			t.Fatalf("section %q missing from /stats", section)
		}
		for _, f := range fields {
			if _, ok := got[f]; !ok {
				t.Errorf("field %s.%s missing from /stats", section, f)
			}
		}
		if len(got) != len(fields) {
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t.Errorf("section %q has fields %v, want exactly %v", section, keys, fields)
		}
	}
}

func TestMetricsEndpointMatchesStats(t *testing.T) {
	svc := New(Config{Workers: 2})
	tool := jasan.New(jasan.Config{UseLiveness: true})
	mod := testModule(t)
	for i := 0; i < 3; i++ { // 1 analysis + 2 cache hits
		if _, err := svc.AnalyzeModuleBytes(mod, tool); err != nil {
			t.Fatal(err)
		}
	}
	h := svc.Handler(DefaultTools())
	w := doReq(t, h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, err := telemetry.ParsePrometheus(w.Body.Bytes())
	if err != nil {
		t.Fatalf("exposition not parseable: %v\n%s", err, w.Body.String())
	}
	find := func(name, labelKey, labelVal string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			if labelKey != "" && s.Labels[labelKey] != labelVal {
				continue
			}
			return s.Value, true
		}
		return 0, false
	}
	st := svc.Stats()
	checks := []struct {
		name, lk, lv string
		want         float64
	}{
		{"janitizer_analyze_submitted_total", "", "", float64(st.Sched.Submitted)},
		{"janitizer_analyze_coalesced_total", "", "", float64(st.Sched.Coalesced)},
		{"janitizer_analyze_cache_hits_total", "", "", float64(st.Sched.CacheHits)},
		{"janitizer_analyzed_total", "", "", float64(st.Sched.Analyzed)},
		{"janitizer_analyze_errors_total", "", "", float64(st.Sched.Errors)},
		{"janitizer_analysis_workers", "", "", float64(st.Sched.Workers)},
		{"janitizer_rule_cache_hits_total", "tier", "mem", float64(st.Cache.MemHits)},
		{"janitizer_rule_cache_hits_total", "tier", "disk", float64(st.Cache.DiskHits)},
		{"janitizer_rule_cache_misses_total", "tier", "mem", float64(st.Cache.MemMisses)},
		{"janitizer_rule_cache_mem_bytes", "", "", float64(st.Cache.MemBytes)},
	}
	for _, c := range checks {
		got, ok := find(c.name, c.lk, c.lv)
		if !ok {
			t.Errorf("metric %s{%s=%q} missing", c.name, c.lk, c.lv)
			continue
		}
		if got != c.want {
			t.Errorf("%s{%s=%q} = %v, /stats says %v", c.name, c.lk, c.lv, got, c.want)
		}
	}
	// The cache-miss analysis recorded a per-tool latency observation.
	if cnt, ok := find("janitizer_analysis_duration_seconds_count", "tool", "jasan"); !ok || cnt != 1 {
		t.Errorf("analysis latency histogram count = %v (found=%t), want 1", cnt, ok)
	}
}

func TestMetricsDeterministicModuloValues(t *testing.T) {
	svc := New(Config{Workers: 2})
	h := svc.Handler(DefaultTools())
	shape := func(body string) string {
		var b strings.Builder
		for _, line := range strings.Split(body, "\n") {
			// Strip the trailing value so only names/labels/comments remain.
			if line == "" || strings.HasPrefix(line, "#") {
				b.WriteString(line + "\n")
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			b.WriteString(line[:i] + "\n")
		}
		return b.String()
	}
	mod := testModule(t)
	tool := jasan.New(jasan.Config{UseLiveness: true})
	if _, err := svc.AnalyzeModuleBytes(mod, tool); err != nil {
		t.Fatal(err)
	}
	first := doReq(t, h, "GET", "/metrics", nil).Body.String()
	// A repeat request for the same tool moves counter values but
	// introduces no new series.
	if _, err := svc.AnalyzeModuleBytes(mod, tool); err != nil {
		t.Fatal(err)
	}
	second := doReq(t, h, "GET", "/metrics", nil).Body.String()
	if shape(first) != shape(second) {
		t.Errorf("exposition shape changed between scrapes:\n--- first\n%s\n--- second\n%s",
			first, second)
	}
}

func TestTraceEndpoint(t *testing.T) {
	svc := New(Config{Workers: 2})
	h := svc.Handler(DefaultTools())

	// Tracer disabled: an empty JSON array, not null.
	telemetry.SetTracer(nil)
	w := doReq(t, h, "GET", "/trace", nil)
	if got := strings.TrimSpace(w.Body.String()); got != "[]" {
		t.Errorf("GET /trace with tracer off = %q, want []", got)
	}

	telemetry.SetTracer(telemetry.NewTracer(16))
	defer telemetry.SetTracer(nil)
	if _, err := svc.AnalyzeModuleBytes(testModule(t),
		jasan.New(jasan.Config{UseLiveness: true})); err != nil {
		t.Fatal(err)
	}
	w = doReq(t, h, "GET", "/trace", nil)
	var spans []*telemetry.SpanRecord
	if err := json.Unmarshal(w.Body.Bytes(), &spans); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	found := false
	for _, sp := range spans {
		if sp.Name == "anserve.analyze" {
			found = true
		}
	}
	if !found {
		t.Errorf("anserve.analyze span missing from /trace (%d spans)", len(spans))
	}
}

func TestRequestLoggingAndDebug(t *testing.T) {
	svc := New(Config{Workers: 2})
	var logBuf bytes.Buffer
	d := NewDaemonOpts(svc, DefaultTools(), DaemonOptions{
		Logger: newTestLogger(&logBuf),
		Debug:  true,
	})
	h := d.srv.Handler

	w := doReq(t, h, "GET", "/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /stats via daemon handler: %d", w.Code)
	}
	if id := w.Header().Get("X-Request-Id"); id == "" {
		t.Error("X-Request-Id header missing")
	}
	logged := logBuf.String()
	for _, want := range []string{"method=GET", "path=/stats", "status=200", "id=req-"} {
		if !strings.Contains(logged, want) {
			t.Errorf("request log missing %q: %s", want, logged)
		}
	}

	// pprof is mounted when Debug is set.
	w = doReq(t, h, "GET", "/debug/pprof/cmdline", nil)
	if w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: %d", w.Code)
	}

	// ...and absent otherwise.
	plain := NewDaemonOpts(svc, DefaultTools(), DaemonOptions{})
	w = doReq(t, plain.srv.Handler, "GET", "/debug/pprof/cmdline", nil)
	if w.Code == http.StatusOK {
		t.Error("pprof served without -debug")
	}
}

func newTestLogger(w *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}
