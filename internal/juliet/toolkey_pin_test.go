package juliet

import (
	"testing"

	"repro/internal/core"
)

// TestDetectorToolKeys pins the tool configuration behind each detector
// label: "jasan" here is the SCEV-hoisting configuration, not the plain
// hybrid, and its cached libj rule file is keyed accordingly.
func TestDetectorToolKeys(t *testing.T) {
	for _, p := range []struct {
		det Detector
		key string
	}{
		{JASan, "jasan:liveness=true,scev=true,elide=false"},
		{Valgrind, "valgrind-sim"},
		{JMSan, "jmsan:liveness=true,elide=false"},
		{JMSanElide, "jmsan:liveness=true,elide=true"},
		{JTSan, "jtsan:liveness=true,elide=false"},
		{JTSanElide, "jtsan:liveness=true,elide=true"},
	} {
		tool, err := detectorTool(p.det)
		if err != nil {
			t.Errorf("%s: %v", p.det, err)
			continue
		}
		if got := core.ToolKey(tool); got != p.key {
			t.Errorf("%s: ToolKey %q, want %q", p.det, got, p.key)
		}
	}
}
