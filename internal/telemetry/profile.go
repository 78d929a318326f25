package telemetry

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// CostCenter classifies where an executed code-cache instruction's cycles
// go — the originating rewrite-rule kind for meta code, the application
// itself, or the DBT's own machinery. The dynamic modifier charges each
// retired instruction's cycles to its center. `jexp cells` writes each
// profiled cell's centers into BENCH_CELLS.json by name, and its summary
// folds them into the per-rule overhead decomposition (Breakdown).
type CostCenter uint8

const (
	// CCOther is the zero value: meta code no tool attributed (baseline
	// tools, unclassified instrumentation).
	CCOther CostCenter = iota
	// CCApp is application code — the native work itself.
	CCApp
	// CCMemCheck is inline shadow-memory access checking: MEM_ACCESS
	// rules, SCEV-hoisted checks and the dynamic fallback's checks (jasan).
	CCMemCheck
	// CCCanary is redzone shadow poisoning/unpoisoning around stack
	// canaries: POISON_CANARY / UNPOISON_CANARY rules (jasan).
	CCCanary
	// CCDefStore is definedness-shadow updating on stores plus frame
	// poisoning: MEM_DEF_STORE / FRAME_UNDEF rules (jmsan).
	CCDefStore
	// CCDefCheck is definedness checking on sink loads: MEM_DEF_LOAD
	// rules (jmsan).
	CCDefCheck
	// CCCFICheck is forward/backward control-flow checking: CFI_CALL,
	// CFI_JUMP, CFI_JUMP_NARROW, CFI_RET, CFI_RESOLVER_RET rules (jcfi).
	CCCFICheck
	// CCShadowStack is shadow-stack maintenance: SHADOW_PUSH rules (jcfi).
	CCShadowStack
	// CCGenCheck is heap-generation checking on accesses: MEM_GEN_CHECK
	// rules (jtsan).
	CCGenCheck
	// CCQuarantine is generation-shadow maintenance in the quarantine
	// allocator wrapper: marking freed spans, clearing them on allocation
	// and quarantine eviction (jtsan).
	CCQuarantine
	// CCElided is residue at proof-elided check sites (MEM_ACCESS_SAFE).
	// It should stay zero: nonzero means an "elided" rule still emits code.
	CCElided
	// CCDispatch is the DBT's own overhead: block translation cost and
	// indirect-branch dispatch cost.
	CCDispatch

	// NumCostCenters bounds the enum for array-indexed accounting.
	NumCostCenters
)

var ccNames = [NumCostCenters]string{
	CCOther:       "other",
	CCApp:         "app",
	CCMemCheck:    "mem-check",
	CCCanary:      "canary",
	CCDefStore:    "def-store",
	CCDefCheck:    "def-check",
	CCCFICheck:    "cfi-check",
	CCShadowStack: "shadow-stack",
	CCGenCheck:    "gen-check",
	CCQuarantine:  "quarantine",
	CCElided:      "elided",
	CCDispatch:    "dispatch",
}

// String names the cost center.
func (cc CostCenter) String() string {
	if int(cc) < len(ccNames) {
		return ccNames[cc]
	}
	return fmt.Sprintf("cc(%d)", uint8(cc))
}

// Profile accumulates model cycles and retired instructions per cost
// center for one run. It is charged from the run's single execution
// goroutine and is not safe for concurrent use; attach one Profile per
// dynamic modifier. A nil Profile ignores charges.
type Profile struct {
	Cycles [NumCostCenters]uint64
	Instrs [NumCostCenters]uint64
}

// Charge attributes cycles model cycles and instrs retired instructions
// to cc.
func (p *Profile) Charge(cc CostCenter, cycles, instrs uint64) {
	if p == nil {
		return
	}
	p.Cycles[cc] += cycles
	p.Instrs[cc] += instrs
}

// TotalCycles sums every center's cycles — for a run profiled end to end
// this equals the machine's final cycle counter.
func (p *Profile) TotalCycles() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, c := range p.Cycles {
		n += c
	}
	return n
}

// TotalInstrs sums every center's retired instructions.
func (p *Profile) TotalInstrs() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for _, c := range p.Instrs {
		n += c
	}
	return n
}

// profileJSON is a Profile's wire form: cycles and instrs keyed by
// CostCenter.String() name, zero centers omitted.
type profileJSON struct {
	Cycles map[string]uint64 `json:"cycles"`
	Instrs map[string]uint64 `json:"instrs"`
}

// MarshalJSON encodes the profile by center name, omitting zero centers.
func (p Profile) MarshalJSON() ([]byte, error) {
	byName := func(v *[NumCostCenters]uint64) map[string]uint64 {
		m := map[string]uint64{}
		for cc, n := range v {
			if n != 0 {
				m[ccNames[cc]] = n
			}
		}
		return m
	}
	return json.Marshal(profileJSON{byName(&p.Cycles), byName(&p.Instrs)})
}

// UnmarshalJSON decodes MarshalJSON's form and rejects an unknown center
// name.
func (p *Profile) UnmarshalJSON(b []byte) error {
	var w profileJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*p = Profile{}
	for _, f := range []struct {
		from map[string]uint64
		to   *[NumCostCenters]uint64
	}{{w.Cycles, &p.Cycles}, {w.Instrs, &p.Instrs}} {
		for name, n := range f.from {
			cc := slices.Index(ccNames[:], name)
			if cc < 0 {
				return fmt.Errorf("telemetry: unknown cost center %q", name)
			}
			f.to[cc] = n
		}
	}
	return nil
}

// Breakdown folds cost centers into the paper's overhead components.
// App + ShadowUpdate + Check + Elided + Dispatch + Other == TotalCycles.
type Breakdown struct {
	// App is the application's own cycles.
	App uint64 `json:"app_cycles"`
	// ShadowUpdate covers shadow-state maintenance: canary poisoning,
	// definedness stores/frame poisoning, shadow-stack pushes and
	// generation-shadow quarantine updates.
	ShadowUpdate uint64 `json:"shadow_update_cycles"`
	// Check covers inline checks: shadow-memory, definedness, generation
	// and CFI.
	Check uint64 `json:"check_cycles"`
	// Elided is residue at proof-elided sites (expected zero).
	Elided uint64 `json:"elided_cycles"`
	// Dispatch is the DBT's translation + indirect-dispatch cost.
	Dispatch uint64 `json:"dispatch_cycles"`
	// Other is unattributed meta code.
	Other uint64 `json:"other_cycles"`
}

// Breakdown folds the profile's centers into overhead components.
func (p *Profile) Breakdown() Breakdown {
	if p == nil {
		return Breakdown{}
	}
	return Breakdown{
		App:          p.Cycles[CCApp],
		ShadowUpdate: p.Cycles[CCCanary] + p.Cycles[CCDefStore] + p.Cycles[CCShadowStack] + p.Cycles[CCQuarantine],
		Check:        p.Cycles[CCMemCheck] + p.Cycles[CCDefCheck] + p.Cycles[CCCFICheck] + p.Cycles[CCGenCheck],
		Elided:       p.Cycles[CCElided],
		Dispatch:     p.Cycles[CCDispatch],
		Other:        p.Cycles[CCOther],
	}
}

// Overhead returns the attributed non-application cycles: the exact
// instrumented-minus-native cycle delta on the deterministic emulator.
func (b Breakdown) Overhead() uint64 {
	return b.ShadowUpdate + b.Check + b.Elided + b.Dispatch + b.Other
}

// Total returns every component summed, application included.
func (b Breakdown) Total() uint64 { return b.App + b.Overhead() }

// Table renders the per-cost-center accounting as a human-readable table
// (cmd/jrun -profile). Zero centers are omitted.
func (p *Profile) Table() string {
	if p == nil {
		return ""
	}
	total := p.TotalCycles()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %16s %16s %7s\n", "cost-center", "cycles", "instrs", "%cyc")
	for cc := CostCenter(0); cc < NumCostCenters; cc++ {
		if p.Cycles[cc] == 0 && p.Instrs[cc] == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(p.Cycles[cc]) / float64(total)
		}
		fmt.Fprintf(&b, "%-14s %16d %16d %6.2f%%\n",
			cc.String(), p.Cycles[cc], p.Instrs[cc], pct)
	}
	totalPct := 0.0
	if total > 0 {
		totalPct = 100
	}
	fmt.Fprintf(&b, "%-14s %16d %16d %6.2f%%\n", "total", total, p.TotalInstrs(), totalPct)
	return b.String()
}
