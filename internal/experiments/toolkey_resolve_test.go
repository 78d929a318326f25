package experiments

import (
	"fmt"
	"testing"

	"repro/internal/anserve"
	"repro/internal/core"
	"repro/internal/registry"
)

// pinTool builds the tool that surface builds for name, or fails as that
// surface fails on an unknown name. Every surface resolves through the
// registry; the daemon through the factory map it serves, and the
// analysis-only surfaces refuse entries without a static stage.
func pinTool(surface, name string) (core.Tool, error) {
	switch surface {
	case "daemon":
		if f, ok := anserve.DefaultTools()[name]; ok {
			return f(), nil
		}
		return nil, fmt.Errorf("daemon: unknown tool %q", name)
	case "janitizer", "jrw", "jvet":
		e, err := registry.LookupStatic(name)
		if err != nil {
			return nil, err
		}
		return e.New(), nil
	}
	e, err := registry.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.New(), nil
}

func TestRegistryNames(t *testing.T) {
	claimed := map[string]string{}
	for _, e := range registry.All() {
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if prev, dup := claimed[n]; dup {
				t.Errorf("%q claimed by %s and %s", n, prev, e.Name)
			}
			claimed[n] = e.Name
		}
	}
	for _, s := range allSchemes {
		if s == Native {
			continue
		}
		if e, err := registry.Lookup(string(s)); err != nil || e.Name != string(s) {
			t.Errorf("scheme %s does not resolve to its own entry: %v", s, err)
		}
	}
	if _, err := registry.Lookup("nosuch"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := registry.LookupStatic("valgrind"); err == nil {
		t.Error("analysis-only lookup accepted an entry without a static stage")
	}
}
