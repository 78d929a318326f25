// Package registry is the one table from a tool name to a tool
// configuration. Every surface that builds a tool by name looks it up here,
// so a name means one configuration, and one core.ToolKey (the identity
// every rule, proof and plan cache keys on), wherever it is accepted.
package registry

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/jlint"
	"repro/internal/jmsan"
	"repro/internal/jtsan"
)

// Entry is one named tool configuration.
type Entry struct {
	// Name is the canonical name: the evaluation's scheme name, and the
	// tool part of every .jrw file name the offline CLIs write and read.
	Name string
	// Aliases are older names that resolve to this entry.
	Aliases []string
	// New returns a fresh tool: instances carry per-run state (reports,
	// runtime tables), so plan capture and the measured run never share one.
	New func() core.Tool
	// Static reports whether a static analysis stage runs; without one,
	// every block is instrumented at run time.
	Static bool
}

// ErrNoStatic refuses an entry without a static stage where one is needed:
// analysis, plan capture and rewriting all start from its rule files.
var ErrNoStatic = errors.New("scheme has no static stage to capture rewrite plans from")

var entries = []Entry{
	{"null-client", []string{"none"}, func() core.Tool { return core.NullTool{} }, false},
	{"jasan-hybrid", []string{"jasan"}, func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true}) }, true},
	{"jasan-hybrid-base", []string{"jasan-base"}, func() core.Tool { return jasan.New(jasan.Config{}) }, true},
	{"jasan-scev", nil, func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true, UseSCEV: true}) }, true},
	{"jasan-elide", nil, func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true, Elide: true}) }, true},
	{"jasan-scev-elide", nil, func() core.Tool { return jasan.New(jasan.Config{UseLiveness: true, UseSCEV: true, Elide: true}) }, true},
	{"jasan-dyn", nil, func() core.Tool { return jasan.New(jasan.Config{}) }, false},
	{"valgrind", nil, func() core.Tool { return baseline.NewValgrind() }, false},
	{"retrowrite", nil, func() core.Tool { return baseline.NewRetrowrite() }, true},
	{"jcfi-hybrid", []string{"jcfi"}, func() core.Tool { return jcfi.New(jcfi.DefaultConfig) }, true},
	{"jcfi-forward", nil, func() core.Tool { return jcfi.New(jcfi.Config{Forward: true}) }, true},
	{"jcfi-narrow", nil, func() core.Tool { return jcfi.New(jcfi.Config{Forward: true, Backward: true, Narrow: true}) }, true},
	{"jcfi-dyn", nil, func() core.Tool { return jcfi.New(jcfi.DefaultConfig) }, false},
	{"lockdown", nil, func() core.Tool { return baseline.NewLockdown(baseline.LockdownConfig{}) }, false},
	{"lockdown-weak", nil, func() core.Tool { return baseline.NewLockdown(baseline.LockdownConfig{Weak: true}) }, false},
	{"bincfi", nil, func() core.Tool { return baseline.NewBinCFI() }, true},
	{"jmsan-hybrid", []string{"jmsan"}, func() core.Tool { return jmsan.New(jmsan.Config{UseLiveness: true}) }, true},
	{"jmsan-elide", nil, func() core.Tool { return jmsan.New(jmsan.Config{UseLiveness: true, Elide: true}) }, true},
	{"jmsan-dyn", nil, func() core.Tool { return jmsan.New(jmsan.Config{}) }, false},
	{"valgrind-def", nil, func() core.Tool { return baseline.NewValgrindDef() }, false},
	{"jtsan-hybrid", []string{"jtsan"}, func() core.Tool { return jtsan.New(jtsan.Config{UseLiveness: true}) }, true},
	{"jtsan-elide", nil, func() core.Tool { return jtsan.New(jtsan.Config{UseLiveness: true, Elide: true}) }, true},
	{"jtsan-dyn", nil, func() core.Tool { return jtsan.New(jtsan.Config{}) }, false},
	{"valgrind-temporal", nil, func() core.Tool { return baseline.NewValgrindTemporal() }, false},
	{"jasan+jmsan", nil, func() core.Tool {
		return core.NewMultiTool(jasan.New(jasan.Config{UseLiveness: true}),
			jmsan.New(jmsan.Config{UseLiveness: true}))
	}, true},
	{"comprehensive", nil, func() core.Tool {
		return core.NewMultiTool(jasan.New(jasan.Config{UseLiveness: true}),
			jmsan.New(jmsan.Config{UseLiveness: true}),
			jtsan.New(jtsan.Config{UseLiveness: true}),
			jcfi.New(jcfi.DefaultConfig))
	}, true},
	{"jlint", nil, func() core.Tool { return jlint.New() }, true},
}

// All returns every entry in table order. Callers must not modify it.
func All() []Entry { return entries }

// Lookup returns the entry that name, canonical or alias, denotes.
func Lookup(name string) (*Entry, error) {
	for i := range entries {
		if e := &entries[i]; e.Name == name || slices.Contains(e.Aliases, name) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("unknown tool %q", name)
}

// MustNew returns a fresh tool of the entry name denotes, for callers that
// name fixed entries: an unknown name there is a bug.
func MustNew(name string) core.Tool {
	e, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return e.New()
}

// LookupStatic is Lookup for surfaces that start from a static stage's
// rule files; an entry without one is refused with ErrNoStatic.
func LookupStatic(name string) (*Entry, error) {
	e, err := Lookup(name)
	if err == nil && !e.Static {
		err = fmt.Errorf("%s: %w", name, ErrNoStatic)
	}
	return e, err
}

// Usage lists the entries, only those with a static stage when static is
// set, for a -tool or -scheme flag: each canonical name, then its aliases.
func Usage(static bool) string {
	var names []string
	for _, e := range entries {
		if e.Static || !static {
			names = append(names, strings.Join(append([]string{e.Name}, e.Aliases...), "|"))
		}
	}
	return strings.Join(names, ", ")
}
