package diag

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Collect adds every violation tool stored to log, symbolizing each
// trapping PC through sym (nil skips symbolization) and stamping the
// active trace/span from sc (the zero context leaves the trace fields
// empty). Returns how many stored reports were collected.
func Collect(log *Log, tool core.Tool, sym Symbolizer, sc telemetry.SpanContext) int {
	n := 0
	for _, r := range reports(tool) {
		for _, v := range r.Violations {
			if sym != nil {
				if mod, fn, off, ok := sym.Symbolize(v.PC); ok {
					v.Module, v.Func, v.FuncOff = mod, fn, off
				}
			}
			if sc.Valid() {
				v.TraceID, v.SpanID = sc.TraceID, sc.SpanID
			}
			log.Add(v)
			n++
		}
	}
	return n
}

// Render formats the log's violations as an ASan-style human report, one
// block per deduplicated finding, in the log's byte-stable order. An empty
// log renders a single all-clear line.
func Render(log *Log) string {
	entries := log.Entries()
	if len(entries) == 0 {
		return "==janitizer== no violations detected\n"
	}
	var b strings.Builder
	for i := range entries {
		b.WriteString(RenderViolation(&entries[i]))
	}
	fmt.Fprintf(&b, "==janitizer== SUMMARY: %d distinct violation(s), %d report(s)\n",
		log.Len(), log.Total())
	return b.String()
}

// RenderViolation formats one violation as an ASan-style report block.
func RenderViolation(v *Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "==janitizer== ERROR: %s: %s", v.Tool, v.Kind)
	if v.CWE != "" {
		fmt.Fprintf(&b, " (%s)", v.CWE)
	}
	if v.Addr != 0 {
		fmt.Fprintf(&b, " on address %#x", v.Addr)
	}
	fmt.Fprintf(&b, " at pc %#x\n", v.PC)
	if v.Func != "" {
		fmt.Fprintf(&b, "    #0 %#x in %s+%#x [%s]\n", v.PC, v.Func, v.FuncOff, v.Module)
	} else if v.Module != "" {
		fmt.Fprintf(&b, "    #0 %#x in <unknown> [%s]\n", v.PC, v.Module)
	} else {
		fmt.Fprintf(&b, "    #0 %#x in <unknown>\n", v.PC)
	}
	if v.Width > 0 {
		fmt.Fprintf(&b, "  access of size %d", v.Width)
		if v.Shadow != 0 {
			fmt.Fprintf(&b, "; shadow byte %#02x", v.Shadow)
		}
		b.WriteString("\n")
	}
	if v.Tool == "jtsan" && (v.Gen > 0 || v.Object != 0) {
		fmt.Fprintf(&b, "  chunk %#x generation %d\n", v.Object, v.Gen)
	} else if v.Object != 0 {
		fmt.Fprintf(&b, "  object base %#x\n", v.Object)
	}
	if v.Target != 0 {
		fmt.Fprintf(&b, "  transfer target %#x\n", v.Target)
	}
	if v.Rule != "" {
		fmt.Fprintf(&b, "  rule %s, cost center %s\n", v.Rule, v.CostCenter)
	}
	if v.TraceID != "" {
		fmt.Fprintf(&b, "  trace %s span %s\n", v.TraceID, v.SpanID)
	}
	fmt.Fprintf(&b, "  id %s, seen %d time(s)\n", v.ID, v.Count)
	return b.String()
}
