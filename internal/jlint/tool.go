package jlint

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/obj"
	"repro/internal/rules"
)

// Tool plugs the static bug detector into the core/anserve tool registry.
// Unlike the sanitizers it has no dynamic side — its whole product is the
// report artifact — so the Tool methods are inert and the service layer
// routes analysis through the ArtifactTool methods instead, giving reports
// the same content-addressed caching and fleet sharding as rule files.
type Tool struct{}

// New returns the jlint tool.
func New() *Tool { return &Tool{} }

// Name implements core.Tool.
func (*Tool) Name() string { return "jlint" }

// ConfigKey pins the report format version into the cache key, so a codec
// change can never serve stale artifacts.
func (*Tool) ConfigKey() string { return fmt.Sprintf("report-v%d", ReportVersion) }

// StaticPass implements core.Tool; the detector emits no rewrite rules.
func (*Tool) StaticPass(*core.StaticContext) []rules.Rule { return nil }

// PlanStatic implements core.Tool as a no-op.
func (*Tool) PlanStatic(*dbm.BlockContext, map[uint64][]rules.Rule) core.InstrPlan { return nil }

// BlockRules implements core.Tool as a no-op.
func (*Tool) BlockRules(*dbm.BlockContext) map[uint64][]rules.Rule { return nil }

// RuntimeInit implements core.Tool as a no-op.
func (*Tool) RuntimeInit(*core.Runtime) error { return nil }

// AnalyzeArtifact implements core.ArtifactTool: the marshaled Report.
func (*Tool) AnalyzeArtifact(mod *obj.Module) ([]byte, error) {
	rep, err := Analyze(mod)
	if err != nil {
		return nil, err
	}
	return rep.Marshal(), nil
}

// ValidateArtifact implements core.ArtifactTool: b must decode as a valid
// report for exactly this module's content.
func (*Tool) ValidateArtifact(mod *obj.Module, b []byte) error {
	rep, err := UnmarshalReport(b)
	if err != nil {
		return err
	}
	if rep.Module != mod.Name {
		return fmt.Errorf("jlint: report for module %q, want %q", rep.Module, mod.Name)
	}
	if rep.ModHash != mod.HashString() {
		return fmt.Errorf("jlint: report hash mismatch for %q", mod.Name)
	}
	return nil
}
