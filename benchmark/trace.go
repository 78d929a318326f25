package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans and counters of the traced rounds in memory. The
// spans are recorded by this package around each public call into a layer;
// no layer is instrumented from the inside. A nil *tracer records nothing,
// so untraced rounds pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []spanRec
	counts map[string]float64
}

// spanRec is one finished span as written by -spans.
type spanRec struct {
	Name string `json:"name"`
	// Round and Op identify the operation the span belongs to; every span
	// of one operation shares them.
	Round  int   `json:"round"`
	Op     int   `json:"op"`
	ID     int   `json:"id"`
	Parent int   `json:"parent"` // -1 for an operation's root span
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// span is an open span; the zero value is inert.
type span struct {
	t  *tracer
	id int
}

func (t *tracer) begin(name string, round, op, parent int) span {
	if t == nil {
		return span{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, Round: round, Op: op, ID: id,
		Parent: parent, Start: now})
	t.mu.Unlock()
	return span{t: t, id: id}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// opTrace scopes spans to one operation: its root span and identity.
type opTrace struct {
	t         *tracer
	round, op int
	root      span
}

func (t *tracer) op(name string, round, op int) *opTrace {
	return &opTrace{t: t, round: round, op: op, root: t.begin(name, round, op, -1)}
}

// child opens a span under the operation's root span.
func (o *opTrace) child(name string) span {
	return o.t.begin(name, o.round, o.op, o.root.id)
}

func (o *opTrace) end() { o.root.end() }

// totals folds the spans into per-name self time in seconds (a span's
// duration minus its children's; children of one operation run
// sequentially, so their durations never overlap) and per-name durations,
// and copies the counters.
func (t *tracer) totals() (self map[string]float64, durs map[string][]float64, counts map[string]float64) {
	self = map[string]float64{}
	durs = map[string][]float64{}
	counts = map[string]float64{}
	if t == nil {
		return self, durs, counts
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counts {
		counts[k] = v
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += float64(d-child[i]) / 1e9
		durs[s.Name] = append(durs[s.Name], float64(d)/1e9)
	}
	return self, durs, counts
}

// writeSpans writes every recorded span, in the order they began, as JSON.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []spanRec `json:"spans"`
	}{workload, seed, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
