package anserve

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// TestDefaultToolNames drives POST /analyze with every name the daemon has
// always served, aliases of registry entries among them, plus
// comprehensive; a registry entry without a static stage has nothing to
// analyze and is an unknown tool to the daemon.
func TestDefaultToolNames(t *testing.T) {
	h := New(Config{}).Handler(DefaultTools())
	body := testModule(t).Marshal()
	for _, name := range []string{"jasan", "jasan-base", "jasan-scev", "jcfi", "jcfi-forward",
		"jmsan", "jmsan-elide", "jtsan", "jtsan-elide", "jasan+jmsan", "jlint", "comprehensive"} {
		if w := doReq(t, h, "POST", "/analyze?tool="+url.QueryEscape(name), body); w.Code != http.StatusOK {
			t.Errorf("tool=%s: %d %s", name, w.Code, w.Body.String())
		}
	}
	for _, name := range []string{"valgrind", "jasan-dyn", "none"} {
		w := doReq(t, h, "POST", "/analyze?tool="+name, body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), ErrCodeUnknownTool) {
			t.Errorf("tool=%s: %d %s, want %s", name, w.Code, w.Body.String(), ErrCodeUnknownTool)
		}
	}
}
