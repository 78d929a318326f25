package anserve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/jasan"
	"repro/internal/jcfi"
	"repro/internal/libj"
	"repro/internal/loader"
	"repro/internal/obj"
	"repro/internal/rules"
)

// testModule compiles a small program whose analysis produces a non-trivial
// rule file.
func testModule(t *testing.T) *obj.Module {
	t.Helper()
	mod, err := cc.Compile(`
int sum(int n) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}
int main() { return sum(10); }
`, cc.Options{Module: "anserve-test", O2: true})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestCachedMatchesFresh is the cache-correctness acceptance criterion: the
// cached artifact and a freshly run analysis marshal to identical bytes.
func TestCachedMatchesFresh(t *testing.T) {
	mod := testModule(t)
	svc := New(Config{})

	first, err := svc.AnalyzeModuleBytes(mod, jasan.New(jasan.Config{UseLiveness: true}))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := svc.AnalyzeModuleBytes(mod, jasan.New(jasan.Config{UseLiveness: true}))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.AnalyzeModule(mod, jasan.New(jasan.Config{UseLiveness: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, cached) {
		t.Fatal("cached artifact differs from first analysis")
	}
	if !bytes.Equal(cached, fresh.Marshal()) {
		t.Fatal("cached artifact differs from a fresh core.AnalyzeModule")
	}
	st := svc.Stats()
	if st.Sched.Analyzed != 1 {
		t.Fatalf("analyzed = %d, want 1", st.Sched.Analyzed)
	}
	if st.Sched.CacheHits != 1 || st.Cache.Hits() != 1 {
		t.Fatalf("stats = %+v, want exactly one cache hit", st)
	}
	if f, err := rules.Unmarshal(cached); err != nil || f.Module != mod.Name {
		t.Fatalf("cached artifact does not round-trip: %v", err)
	}
}

// TestToolConfigSeparation checks that differently-configured instances of
// one tool do not alias each other's cache entries.
func TestToolConfigSeparation(t *testing.T) {
	mod := testModule(t)
	svc := New(Config{})
	tools := []core.Tool{
		jasan.New(jasan.Config{UseLiveness: true}),
		jasan.New(jasan.Config{UseLiveness: true, UseSCEV: true}),
		jcfi.New(jcfi.DefaultConfig),
		jcfi.New(jcfi.Config{Forward: true}),
	}
	keys := map[string]bool{}
	for _, tool := range tools {
		keys[CacheKey(mod, tool)] = true
		if _, err := svc.AnalyzeModuleBytes(mod, tool); err != nil {
			t.Fatal(err)
		}
	}
	if len(keys) != len(tools) {
		t.Fatalf("cache keys collide: %d distinct for %d configurations",
			len(keys), len(tools))
	}
	if st := svc.Stats(); st.Sched.Analyzed != uint64(len(tools)) {
		t.Fatalf("analyzed = %d, want %d", st.Sched.Analyzed, len(tools))
	}
}

// gateTool blocks inside StaticPass until released, letting the test hold
// an analysis in flight while more requests arrive.
type gateTool struct {
	core.Tool
	gate <-chan struct{}
}

func (g *gateTool) StaticPass(sc *core.StaticContext) []rules.Rule {
	<-g.gate
	return g.Tool.StaticPass(sc)
}

// TestSingleflight holds one analysis open while seven more identical
// requests arrive, then releases it: exactly one analysis may run, with
// every other request coalescing onto it.
func TestSingleflight(t *testing.T) {
	mod := testModule(t)
	svc := New(Config{Workers: 8})
	gate := make(chan struct{})
	tool := &gateTool{Tool: jasan.New(jasan.Config{UseLiveness: true}), gate: gate}

	const clients = 8
	results := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.AnalyzeModuleBytes(mod, tool)
		}(i)
	}
	// Wait until the seven other requests have coalesced onto the held
	// analysis, then open the gate.
	for svc.Stats().Sched.Coalesced < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d: response differs", i)
		}
	}
	st := svc.Stats()
	if st.Sched.Analyzed != 1 {
		t.Fatalf("analyzed = %d, want exactly 1", st.Sched.Analyzed)
	}
	if st.Sched.Coalesced != clients-1 {
		t.Fatalf("coalesced = %d, want %d", st.Sched.Coalesced, clients-1)
	}
}

// TestAnalyzeProgram checks the concurrent dependency-aware closure path
// against the serial core.AnalyzeProgram reference.
func TestAnalyzeProgram(t *testing.T) {
	mod := testModule(t)
	lj, err := libj.Module()
	if err != nil {
		t.Fatal(err)
	}
	reg := loader.Registry{libj.Name: lj}

	svc := New(Config{Workers: 4})
	got, err := svc.AnalyzeProgram(mod, reg, jasan.New(jasan.Config{UseLiveness: true}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AnalyzeProgram(mod, reg, jasan.New(jasan.Config{UseLiveness: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("got %d files, want %d (main + libj)", len(got), len(want))
	}
	for name, wf := range want {
		gf, ok := got[name]
		if !ok {
			t.Fatalf("missing rule file for %s", name)
		}
		if !bytes.Equal(gf.Marshal(), wf.Marshal()) {
			t.Fatalf("%s: service and serial analysis disagree", name)
		}
	}
	if st := svc.Stats(); st.Sched.Analyzed != 2 {
		t.Fatalf("analyzed = %d, want 2", st.Sched.Analyzed)
	}
}

// TestDiskTierSurvivesRestart checks that a new service over the same cache
// directory serves artifacts without re-analyzing.
func TestDiskTierSurvivesRestart(t *testing.T) {
	mod := testModule(t)
	dir := t.TempDir()

	s1 := New(Config{CacheDir: dir})
	first, err := s1.AnalyzeModuleBytes(mod, jcfi.New(jcfi.DefaultConfig))
	if err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{CacheDir: dir})
	again, err := s2.AnalyzeModuleBytes(mod, jcfi.New(jcfi.DefaultConfig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("disk-tier artifact differs from original analysis")
	}
	st := s2.Stats()
	if st.Sched.Analyzed != 0 {
		t.Fatalf("analyzed = %d after restart, want 0 (disk hit)", st.Sched.Analyzed)
	}
	if st.Cache.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.Cache.DiskHits)
	}
}
