package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilProfileIsInert(t *testing.T) {
	var p *Profile
	p.Charge(CCMemCheck, 100, 10) // must not panic
	if p.TotalCycles() != 0 || p.TotalInstrs() != 0 {
		t.Fatal("nil profile accumulated")
	}
	if b := p.Breakdown(); b != (Breakdown{}) {
		t.Fatalf("nil breakdown = %+v", b)
	}
	if p.Table() != "" {
		t.Fatal("nil profile renders a table")
	}
}

func TestBreakdownFoldsAndSums(t *testing.T) {
	p := &Profile{}
	p.Charge(CCApp, 1000, 500)
	p.Charge(CCMemCheck, 40, 20)
	p.Charge(CCDefCheck, 30, 15)
	p.Charge(CCCFICheck, 20, 10)
	p.Charge(CCCanary, 8, 4)
	p.Charge(CCDefStore, 6, 3)
	p.Charge(CCShadowStack, 4, 2)
	p.Charge(CCElided, 0, 0)
	p.Charge(CCDispatch, 275, 0)
	p.Charge(CCOther, 7, 7)

	b := p.Breakdown()
	if b.App != 1000 || b.Check != 90 || b.ShadowUpdate != 18 ||
		b.Dispatch != 275 || b.Other != 7 || b.Elided != 0 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Overhead() != 390 {
		t.Fatalf("overhead = %d, want 390", b.Overhead())
	}
	if b.Total() != p.TotalCycles() || b.Total() != 1390 {
		t.Fatalf("total = %d, profile total = %d", b.Total(), p.TotalCycles())
	}
	if p.TotalInstrs() != 561 {
		t.Fatalf("instrs = %d, want 561", p.TotalInstrs())
	}
}

func TestCostCenterNamesAndTable(t *testing.T) {
	seen := map[string]bool{}
	for cc := CostCenter(0); cc < NumCostCenters; cc++ {
		n := cc.String()
		if n == "" || strings.HasPrefix(n, "cc(") {
			t.Fatalf("cost center %d unnamed", cc)
		}
		if seen[n] {
			t.Fatalf("duplicate cost-center name %q", n)
		}
		seen[n] = true
	}
	p := &Profile{}
	p.Charge(CCApp, 900, 450)
	p.Charge(CCMemCheck, 100, 50)
	tab := p.Table()
	for _, want := range []string{"app", "mem-check", "total", "90.00%", "10.00%"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	if strings.Contains(tab, "cfi-check") {
		t.Errorf("table shows zero center:\n%s", tab)
	}
}

func BenchmarkDisabledProfileCharge(b *testing.B) {
	var p *Profile
	for i := 0; i < b.N; i++ {
		p.Charge(CCApp, 2, 1)
	}
}

func TestProfileJSONByCenterName(t *testing.T) {
	p := &Profile{}
	p.Charge(CCApp, 900, 450)
	p.Charge(CCGenCheck, 64, 16)
	p.Charge(CCDispatch, 30, 0)
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"cycles":{"app":900,"dispatch":30,"gen-check":64},"instrs":{"app":450,"gen-check":16}}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back Profile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != *p {
		t.Fatalf("round trip = %+v, want %+v", back, *p)
	}
	err = json.Unmarshal([]byte(`{"cycles":{"app":1,"mem-chek":2}}`), &back)
	if err == nil || !strings.Contains(err.Error(), `"mem-chek"`) {
		t.Fatalf("unknown center name: err = %v", err)
	}
}
