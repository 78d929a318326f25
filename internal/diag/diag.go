// Package diag holds the one violation record every detector reports —
// the detection-side counterpart of internal/telemetry's serving-side
// traces. Every trap family (JASan redzone checks, JMSan definedness
// checks, JTSan generation checks and quarantine-time frees, JCFI edge
// checks, and the baselines sharing or mirroring them) builds a Violation
// whole when it fires: the reporting tool, the violation kind, the
// trapping PC, the access address and width, the shadow or generation
// state that fired, and the originating rule ID and cost center. It lands
// in the tool's capped Report.
//
// Collection is pull-based and post-run: Collect walks a tool's Reports,
// symbolizes each PC to function+offset through the module symbol table,
// stamps the active trace/span ID and deduplicates into a Log with a CWE
// class, so a fleet operator can walk from a Prometheus exemplar to a
// trace to the exact check that fired, and harness oracles can assert on
// fields instead of panic-string matching. Nothing here feeds back into
// a run, so runs with and without diagnostics execute bit-identically.
package diag

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Violation is one sanitizer finding: raw in a tool's Report, structured
// (symbolized, trace-bound, CWE-classified, deduplicated) in a Log.
type Violation struct {
	// ID is the content hash of the identity fields (everything except
	// the trace/span IDs and Count): two runs of the same binary hitting
	// the same bug produce the same ID.
	ID string `json:"id"`
	// Tool is the owner of the Report that recorded the violation: "jasan",
	// "jmsan", "jtsan", "jcfi", or a baseline ("valgrind", "retrowrite",
	// "lockdown", "bincfi").
	Tool string `json:"tool"`
	// Kind is the tool's violation class, e.g. "heap-buffer-overflow",
	// "uninitialized-read", "use-after-free", "forward-edge".
	Kind string `json:"kind"`
	// CWE is the Common Weakness Enumeration class for Kind ("" when
	// unmapped).
	CWE string `json:"cwe,omitempty"`
	// PC is the run-time address of the trapping check.
	PC uint64 `json:"pc"`
	// Module/Func/FuncOff symbolize PC against the loaded image: the
	// containing module, the enclosing function (from the module symbol
	// table at its symbolization level) and PC's offset into it. Module
	// is "" when PC resolves to no loaded module, Func when the module's
	// symbol table has no covering function symbol.
	Module  string `json:"module,omitempty"`
	Func    string `json:"func,omitempty"`
	FuncOff uint64 `json:"func_off,omitempty"`
	// Addr is the faulting data address (access target, freed pointer;
	// 0 when not applicable).
	Addr uint64 `json:"addr,omitempty"`
	// Width is the access width in bytes (0 for free-time and
	// control-flow violations).
	Width int `json:"width,omitempty"`
	// Shadow is the JASan shadow byte that fired (0 otherwise).
	Shadow uint8 `json:"shadow,omitempty"`
	// Gen is the JTSan chunk generation at report time (0 otherwise).
	Gen uint64 `json:"gen,omitempty"`
	// Object is the base address of the heap object the violation refers
	// to (0 when unattributable).
	Object uint64 `json:"object,omitempty"`
	// Target is the offending control-transfer target (JCFI only).
	Target uint64 `json:"target,omitempty"`
	// Rule is the rewrite-rule ID whose planted check fired, in
	// rules.ID.String() form (e.g. "MEM_ACCESS", "MEM_GEN_CHECK").
	Rule string `json:"rule,omitempty"`
	// CostCenter is the telemetry cost center the check's cycles charge
	// to (e.g. "mem-check", "gen-check").
	CostCenter string `json:"cost_center,omitempty"`
	// TraceID/SpanID tie the violation to the distributed trace active
	// when it was collected ("" outside a traced request).
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Count is how many raw reports deduplicated into this record.
	Count uint64 `json:"count"`
}

// String renders v as one raw report line, "<tool>: <kind>: <detail>".
func (v Violation) String() string {
	switch {
	case v.Width > 0:
		s := fmt.Sprintf("%s: %s: %d-byte access at %#x (pc %#x", v.Tool, v.Kind, v.Width, v.Addr, v.PC)
		if v.Shadow != 0 {
			s += fmt.Sprintf(", shadow %#x", v.Shadow)
		}
		if v.Gen != 0 {
			s += fmt.Sprintf(", chunk %#x, gen %d", v.Object, v.Gen)
		}
		return s + ")"
	case v.Addr != 0:
		return fmt.Sprintf("%s: %s: free(%#x) (pc %#x, gen %d)", v.Tool, v.Kind, v.Addr, v.PC, v.Gen)
	default:
		return fmt.Sprintf("%s: %s: transfer to %#x (pc %#x)", v.Tool, v.Kind, v.Target, v.PC)
	}
}

// cweByKind maps tool violation classes to CWE identifiers.
var cweByKind = map[string]string{
	"heap-buffer-overflow":     "CWE-122",
	"partial-granule-overflow": "CWE-122",
	"stack-canary-overwrite":   "CWE-121",
	"heap-use-after-free":      "CWE-416",
	"unknown-poison":           "CWE-119",
	"uninitialized-read":       "CWE-457",
	"use-after-free":           "CWE-416",
	"double-free":              "CWE-415",
	"invalid-free":             "CWE-590",
	"forward-edge":             "CWE-691",
	"return-mismatch":          "CWE-691",
	"invalid-access-redzone":   "CWE-122",
	"invalid-access":           "CWE-119",
}

// CWEForKind returns the CWE class for a violation kind ("" if unmapped).
func CWEForKind(kind string) string { return cweByKind[kind] }

// hashID computes the violation's content ID: a 16-hex-character prefix of
// the SHA-256 over every identity field, excluding the trace/span IDs and
// the dedup count (the same bug under a different request must collapse to
// the same record).
func hashID(v *Violation) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d\x00%s\x00",
		v.Tool, v.Kind, v.PC, v.Module, v.Func, v.FuncOff,
		v.Addr, v.Width, v.Shadow, v.Gen, v.Object, v.Target, v.Rule)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// MaxRecords bounds a Log's distinct records, so a log kept for a daemon's
// lifetime stays bounded: past it a new ID is dropped and counted, while a
// repeat of a retained ID still counts.
const MaxRecords = 1 << 16

// Log accumulates violations with content-hash deduplication. Safe for
// concurrent use. A nil Log ignores writes and reads as empty, so serving
// paths can record unconditionally.
type Log struct {
	mu      sync.Mutex
	byID    map[string]*Violation
	dropped uint64
}

// NewLog returns an empty violation log.
func NewLog() *Log { return &Log{byID: map[string]*Violation{}} }

// Add records v, deduplicating by content hash: a repeat increments the
// existing record's Count and keeps the first-seen trace binding; a new ID
// past MaxRecords is dropped. v.ID and v.CWE are (re)computed here;
// v.Count of 0 counts as 1.
func (l *Log) Add(v Violation) {
	if l == nil {
		return
	}
	if v.Count == 0 {
		v.Count = 1
	}
	if v.CWE == "" {
		v.CWE = CWEForKind(v.Kind)
	}
	v.ID = hashID(&v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.byID[v.ID]; ok {
		prev.Count += v.Count
		return
	}
	if len(l.byID) >= MaxRecords {
		l.dropped++
		return
	}
	l.byID[v.ID] = &v
}

// Len returns the number of distinct (deduplicated) violations.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byID)
}

// Total returns the total raw report count across the retained records.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for _, v := range l.byID {
		n += v.Count
	}
	return n
}

// Entries returns the deduplicated violations in byte-stable order:
// (Tool, Kind, PC, Addr, ID) ascending. The records are copies.
func (l *Log) Entries() []Violation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Violation, 0, len(l.byID))
	for _, v := range l.byID {
		out = append(out, *v)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.ID < b.ID
	})
	return out
}

// MarshalJSON renders the log as the sorted Entries array, so serialising
// the same set of violations always produces identical bytes.
func (l *Log) MarshalJSON() ([]byte, error) {
	entries := l.Entries()
	if entries == nil {
		entries = []Violation{}
	}
	return json.Marshal(entries)
}
