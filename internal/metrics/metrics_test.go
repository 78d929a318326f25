package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSlowdown(t *testing.T) {
	if got := Slowdown(300, 100); got != 3 {
		t.Errorf("Slowdown = %f", got)
	}
	if got := Slowdown(100, 0); got != 0 {
		t.Errorf("Slowdown by zero base = %f", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %f, want 4", got)
	}
	// Non-positive entries excluded.
	if got := Geomean([]float64{2, 8, 0, -1}); math.Abs(got-4) > 1e-9 {
		t.Errorf("Geomean with zeros = %f, want 4", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %f", got)
	}
}

func TestAIRAccumulator(t *testing.T) {
	var a AIRAccumulator
	if a.Percent() != 0 {
		t.Error("empty AIR should be 0")
	}
	a.Add(10, 1000)  // 1% of space
	a.Add(30, 1000)  // 3%
	a.Add(999, 1000) // 99.9%... mean frac = (0.01+0.03+0.999)/3
	want := 100 * (1 - (0.01+0.03+0.999)/3)
	if math.Abs(a.Percent()-want) > 1e-9 {
		t.Errorf("AIR = %f, want %f", a.Percent(), want)
	}
	if a.Sites() != 3 {
		t.Errorf("sites = %d", a.Sites())
	}
	// Fraction clamps at 1.
	var b AIRAccumulator
	b.Add(5000, 1000)
	if b.Percent() != 0 {
		t.Errorf("clamped AIR = %f, want 0", b.Percent())
	}
	// Property: AIR always within [0, 100].
	f := func(t1, t2, s uint16) bool {
		var acc AIRAccumulator
		acc.Add(float64(t1), float64(s)+1)
		acc.Add(float64(t2), float64(s)+1)
		p := acc.Percent()
		return p >= 0 && p <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAIRIndependentOfOrder(t *testing.T) {
	// Float addition is not associative: summed in these two orders the
	// fractions give AIRs 49.83333333333334 and 49.83333333333333, so AIR
	// must fix its own summation order.
	fwd := AIR([]float64{300, 694, 511}, 1000)
	rev := AIR([]float64{511, 694, 300}, 1000)
	if fwd != rev {
		t.Fatalf("AIR depends on order: %v vs %v", fwd, rev)
	}
	if got := AIR(nil, 100); got != 0 {
		t.Errorf("AIR(nil) = %v, want 0", got)
	}
}

func TestFormatTable(t *testing.T) {
	rows := []Row{
		{Label: "toolA", Values: map[string]float64{"b1": 2.0, "b2": 8.0}},
		{Label: "toolB", Values: map[string]float64{"b1": 1.5}},
	}
	out := FormatTable("Figure X", []string{"b1", "b2"}, rows, "slowdown")
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "toolA") {
		t.Fatalf("table missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "x") {
		t.Error("missing value not rendered as x")
	}
	if !strings.Contains(out, "4.00") {
		t.Errorf("geomean of 2,8 missing:\n%s", out)
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]float64{"c": 1, "a": 2, "b": 3})
	if strings.Join(got, "") != "abc" {
		t.Errorf("SortedKeys = %v", got)
	}
}
