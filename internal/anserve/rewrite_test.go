package anserve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/rewrite"
)

// TestRewriteCacheKeyDistinct checks every axis of the plan cache key:
// placement (base and module ID), tool configuration, and the rewrite
// domain — plans captured under different loader placements must never
// alias each other's entries, nor the module's rule file.
func TestRewriteCacheKeyDistinct(t *testing.T) {
	mod := testModule(t)
	tool := jasan.New(jasan.Config{UseLiveness: true})
	base := RewriteCacheKey(mod, tool, 0, 0)
	keys := map[string]string{
		"base":   RewriteCacheKey(mod, tool, 0x10000, 0),
		"id":     RewriteCacheKey(mod, tool, 0, 1),
		"config": RewriteCacheKey(mod, jasan.New(jasan.Config{UseLiveness: true, UseSCEV: true}), 0, 0),
		"rules":  CacheKey(mod, tool),
	}
	for axis, k := range keys {
		if k == base {
			t.Errorf("%s does not separate cache keys", axis)
		}
	}
}

// TestRewritePlansCached checks the plan cache round trip: a second
// RewritePlans call must be served entirely from the cache and yield plans
// byte-identical to the captured ones.
func TestRewritePlansCached(t *testing.T) {
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	main := testModule(t)
	reg := loader.Registry{libj.Name: lj}
	newTool := func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) }

	svc := New(Config{})
	files, err := svc.AnalyzeProgram(main, reg, newTool())
	if err != nil {
		t.Fatal(err)
	}

	first, err := svc.RewritePlans(main, reg, files, newTool)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no plans captured")
	}
	hits := svc.Stats().Cache.Hits()

	second, err := svc.RewritePlans(main, reg, files, newTool)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Cache.Hits(); got < hits+uint64(len(first)) {
		t.Fatalf("second call hit the cache %d times, want >= %d", got-hits, len(first))
	}
	if len(second) != len(first) {
		t.Fatalf("cached call returned %d plans, captured %d", len(second), len(first))
	}
	for name, p := range first {
		q := second[name]
		if q == nil {
			t.Fatalf("cached call lost the plan for %s", name)
		}
		if string(p.Marshal()) != string(q.Marshal()) {
			t.Errorf("%s: cached plan differs from captured plan", name)
		}
	}

	// Cached plans are directly consumable: they validate and apply.
	for name, p := range second {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: cached plan invalid: %v", name, err)
		}
		mod := reg[name]
		if name == main.Name {
			mod = main
		}
		if _, err := rewrite.Apply(mod, p); err != nil {
			t.Fatalf("%s: cached plan does not apply: %v", name, err)
		}
	}
}
