package diag

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vm"
)

// MaxStored bounds a Report; further violations are counted but not stored.
const MaxStored = 16384

// Report is one tool's raw violation log, filled by its trap handlers
// during a run.
type Report struct {
	// Tool names the report's owner; Add stamps it on every record.
	Tool string
	// Violations holds the first MaxStored records in report order.
	Violations []Violation
	// Total counts every report, including ones dropped past the storage
	// cap.
	Total uint64
	// HaltOnError aborts execution at the first violation when set
	// (AddressSanitizer's default; the evaluation harness runs in recover
	// mode to count all violations).
	HaltOnError bool
	// Unattributed marks an owner that reuses a Janitizer runtime's trap
	// handlers without charging their cost centers (the Valgrind,
	// Lockdown and BinCFI models); Add clears the Rule and CostCenter
	// those handlers fill in.
	Unattributed bool
}

// Add records v as the report owner's. When the report halts on error it
// returns the fault that stops the run: kind "<tool>: <kind>", address the
// faulting data address or, for a control-flow violation, the offending
// target.
func (r *Report) Add(v Violation) error {
	v.Tool = r.Tool
	if r.Unattributed {
		v.Rule, v.CostCenter = "", ""
	}
	r.Total++
	if len(r.Violations) < MaxStored {
		r.Violations = append(r.Violations, v)
	}
	if !r.HaltOnError {
		return nil
	}
	addr := v.Addr
	if v.Target != 0 {
		addr = v.Target
	}
	return &vm.Fault{PC: v.PC, Addr: addr, Kind: v.Tool + ": " + v.Kind}
}

// Reporter is a tool whose trap handlers record into a Report.
type Reporter interface {
	ViolationReport() *Report
}

// reports returns the Reports of tool in tool order, walking MultiTool
// compositions, so a "comprehensive" run yields all four sanitizers'.
func reports(tool core.Tool) []*Report {
	switch t := tool.(type) {
	case Reporter:
		return []*Report{t.ViolationReport()}
	case *core.MultiTool:
		var out []*Report
		for _, sub := range t.Tools {
			out = append(out, reports(sub)...)
		}
		return out
	}
	return nil
}

// Count returns how many violations tool reported in its run, dropped ones
// included; a tool without a Report counts 0.
func Count(tool core.Tool) int {
	n := 0
	for _, r := range reports(tool) {
		n += int(r.Total)
	}
	return n
}

// Unstored returns how many violations tool counted but did not store past
// MaxStored, over all its reports.
func Unstored(tool core.Tool) uint64 {
	var n uint64
	for _, r := range reports(tool) {
		n += r.Total - uint64(len(r.Violations))
	}
	return n
}

// UnstoredNote is the clause a violation summary adds for n unstored
// reports; empty when n is 0, when a summary adds nothing.
func UnstoredNote(n uint64) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("%d more report(s) counted but not stored (past %d per tool)", n, MaxStored)
}

// Lines returns the violations tool stored, one raw report line each, in
// tool and then report order.
func Lines(tool core.Tool) []string {
	var out []string
	for _, r := range reports(tool) {
		for _, v := range r.Violations {
			out = append(out, v.String())
		}
	}
	return out
}
