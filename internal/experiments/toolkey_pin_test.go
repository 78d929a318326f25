package experiments

import (
	"testing"

	"repro/internal/core"
)

// comprehensiveKey is the combined jasan+jmsan+jtsan+jcfi configuration's
// cache identity.
const comprehensiveKey = "jasan+jmsan+jtsan+jcfi:jasan{liveness=true,scev=false,elide=false}+" +
	"jmsan{liveness=true,elide=false}+jtsan{liveness=true,elide=false}+" +
	"jcfi{forward=true,backward=true,narrow=false}"

// toolKeyPins lists every name each tool-building surface accepts, with the
// core.ToolKey of the tool it builds. The key addresses rule files, proofs,
// rewrite plans and the daemon's content-addressed caches, so a name that
// changes its key silently invalidates (or aliases) cached artifacts.
var toolKeyPins = []struct{ surface, name, key string }{
	{"scheme", "null-client", "null-client"},
	{"scheme", "jasan-hybrid", "jasan:liveness=true,scev=false,elide=false"},
	{"scheme", "jasan-hybrid-base", "jasan:liveness=false,scev=false,elide=false"},
	{"scheme", "jasan-scev", "jasan:liveness=true,scev=true,elide=false"},
	{"scheme", "jasan-elide", "jasan:liveness=true,scev=false,elide=true"},
	{"scheme", "jasan-dyn", "jasan:liveness=false,scev=false,elide=false"},
	{"scheme", "valgrind", "valgrind-sim"},
	{"scheme", "retrowrite", "retrowrite-sim"},
	{"scheme", "jcfi-hybrid", "jcfi:forward=true,backward=true,narrow=false"},
	{"scheme", "jcfi-forward", "jcfi:forward=true,backward=false,narrow=false"},
	{"scheme", "jcfi-narrow", "jcfi:forward=true,backward=true,narrow=true"},
	{"scheme", "jcfi-dyn", "jcfi:forward=true,backward=true,narrow=false"},
	{"scheme", "lockdown", "lockdown-sim"},
	{"scheme", "lockdown-weak", "lockdown-sim-weak"},
	{"scheme", "bincfi", "bincfi-sim"},
	{"scheme", "jmsan-hybrid", "jmsan:liveness=true,elide=false"},
	{"scheme", "jmsan-elide", "jmsan:liveness=true,elide=true"},
	{"scheme", "jmsan-dyn", "jmsan:liveness=false,elide=false"},
	{"scheme", "valgrind-def", "valgrind-def"},
	{"scheme", "jtsan-hybrid", "jtsan:liveness=true,elide=false"},
	{"scheme", "jtsan-elide", "jtsan:liveness=true,elide=true"},
	{"scheme", "jtsan-dyn", "jtsan:liveness=false,elide=false"},
	{"scheme", "valgrind-temporal", "valgrind-temporal"},
	{"scheme", "comprehensive", comprehensiveKey},

	{"daemon", "jasan", "jasan:liveness=true,scev=false,elide=false"},
	{"daemon", "jasan-base", "jasan:liveness=false,scev=false,elide=false"},
	{"daemon", "jasan-scev", "jasan:liveness=true,scev=true,elide=false"},
	{"daemon", "jcfi", "jcfi:forward=true,backward=true,narrow=false"},
	{"daemon", "jcfi-forward", "jcfi:forward=true,backward=false,narrow=false"},
	{"daemon", "jmsan", "jmsan:liveness=true,elide=false"},
	{"daemon", "jmsan-elide", "jmsan:liveness=true,elide=true"},
	{"daemon", "jtsan", "jtsan:liveness=true,elide=false"},
	{"daemon", "jtsan-elide", "jtsan:liveness=true,elide=true"},
	{"daemon", "jasan+jmsan", "jasan+jmsan:jasan{liveness=true,scev=false,elide=false}+jmsan{liveness=true,elide=false}"},
	{"daemon", "jlint", "jlint:report-v1"},
	{"daemon", "comprehensive", comprehensiveKey},

	{"jrun", "jasan", "jasan:liveness=true,scev=false,elide=false"},
	{"jrun", "jmsan", "jmsan:liveness=true,elide=false"},
	{"jrun", "jtsan", "jtsan:liveness=true,elide=false"},
	{"jrun", "jtsan-elide", "jtsan:liveness=true,elide=true"},
	{"jrun", "jcfi", "jcfi:forward=true,backward=true,narrow=false"},
	{"jrun", "none", "null-client"},

	{"janitizer", "jasan", "jasan:liveness=true,scev=false,elide=false"},
	{"janitizer", "jmsan", "jmsan:liveness=true,elide=false"},
	{"janitizer", "jtsan", "jtsan:liveness=true,elide=false"},
	{"janitizer", "jtsan-elide", "jtsan:liveness=true,elide=true"},
	{"janitizer", "jcfi", "jcfi:forward=true,backward=true,narrow=false"},

	{"jrw", "jasan", "jasan:liveness=true,scev=false,elide=false"},
	{"jrw", "jcfi", "jcfi:forward=true,backward=true,narrow=false"},
	{"jrw", "jmsan", "jmsan:liveness=true,elide=false"},
	{"jrw", "comprehensive", comprehensiveKey},

	{"jvet", "jasan-elide", "jasan:liveness=true,scev=false,elide=true"},
	{"jvet", "jasan-scev-elide", "jasan:liveness=true,scev=true,elide=true"},
	{"jvet", "jcfi-narrow", "jcfi:forward=true,backward=true,narrow=true"},
	{"jvet", "jmsan-elide", "jmsan:liveness=true,elide=true"},
	{"jvet", "jtsan-elide", "jtsan:liveness=true,elide=true"},
}

func TestToolKeyPins(t *testing.T) {
	for _, p := range toolKeyPins {
		tool, err := pinTool(p.surface, p.name)
		if err != nil {
			t.Errorf("%s %q: %v", p.surface, p.name, err)
			continue
		}
		if got := core.ToolKey(tool); got != p.key {
			t.Errorf("%s %q: ToolKey %q, want %q", p.surface, p.name, got, p.key)
		}
	}
}
