// Command jload is the deterministic fleet load generator: it replays
// synthetic analysis traffic mixes against one or more janitizerd nodes
// and publishes the serving trajectory as BENCH_SERVE.json — QPS,
// p50/p95/p99 latency, cache-hit tiers (local/peer/miss from the X-Cache
// header) and per-shard balance — so horizontal scaling is a first-class
// benchmark artifact alongside BENCH_CELLS.json.
//
// Usage:
//
//	jload -addrs a:1,b:2,c:3 [-single s:0] [-mix hot,cold,mixed,batch]
//	      [-n 500] [-c 16] [-modules 32] [-batch 16] [-seed 1]
//	      [-zipf 1.2] [-o BENCH_SERVE.json]
//	      [-verify] [-require-peer-fill] [-quiet]
//
// Traffic mixes (all schedules derive from -seed; the request sequence is
// reproducible run to run):
//
//	hot    Zipf-skewed requests over the module corpus with one tool —
//	       the steady-state serving shape. The corpus is warmed on every
//	       node first (which is what exercises peer fill), so the
//	       measured phase is the fleet's hit path.
//	cold   every request a never-seen module: the analysis-throughput
//	       (all-miss) shape.
//	mixed  uniform modules × {jasan, jcfi, jmsan}: distinct artifacts per
//	       tool configuration.
//	batch  the hot schedule POSTed through /analyze/batch in -batch-sized
//	       groups.
//
// With -single, the hot mix also runs against the baseline node and the
// report gains hot_speedup = fleet QPS / single-node QPS. With -verify,
// every (module, tool) is posted to every node (baseline included) and
// the responses must be byte-identical — the fleet may never trade
// correctness for speed. -require-peer-fill fails the run unless the
// fleet's janitizer_cluster_peer_fill_total grew above zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anserve"
	"repro/internal/buildinfo"
	"repro/internal/cc"
	"repro/internal/obj"
	"repro/internal/telemetry"
)

// request is one scheduled analysis call.
type request struct {
	addr string
	tool string
	mod  *obj.Module
}

// row is one mix's measured result in BENCH_SERVE.json.
type row struct {
	Target    string  `json:"target"` // "fleet" or "single"
	Mix       string  `json:"mix"`
	Nodes     int     `json:"nodes"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	DurationS float64 `json:"duration_s"`
	QPS       float64 `json:"qps"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	TierLocal int     `json:"tier_local"`
	TierPeer  int     `json:"tier_peer"`
	TierMiss  int     `json:"tier_miss"`
}

// nodeMetrics is one node's scraped counters at the end of the run.
type nodeMetrics struct {
	Addr      string  `json:"addr"`
	Submitted float64 `json:"submitted"`
	Analyzed  float64 `json:"analyzed"`
	PeerFills float64 `json:"peer_fills"`
}

// report is the whole BENCH_SERVE.json document.
type report struct {
	Config struct {
		Addrs       []string `json:"addrs"`
		Single      string   `json:"single,omitempty"`
		Mixes       []string `json:"mixes"`
		N           int      `json:"n"`
		Concurrency int      `json:"concurrency"`
		Modules     int      `json:"modules"`
		Batch       int      `json:"batch"`
		Seed        int64    `json:"seed"`
		ZipfS       float64  `json:"zipf_s"`
	} `json:"config"`
	Rows       []row         `json:"rows"`
	Fleet      []nodeMetrics `json:"fleet_metrics"`
	HotSpeedup float64       `json:"hot_speedup,omitempty"`
}

var (
	quiet  bool
	client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
)

func logf(format string, args ...any) {
	if !quiet {
		fmt.Fprintf(os.Stderr, "jload: "+format+"\n", args...)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jload: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addrsFlag := flag.String("addrs", "", "comma-separated fleet addresses (required)")
	single := flag.String("single", "", "single-node baseline address (optional)")
	mixFlag := flag.String("mix", "hot,cold,mixed,batch", "traffic mixes to run")
	n := flag.Int("n", 500, "requests per mix")
	c := flag.Int("c", 16, "concurrent clients per target node")
	modules := flag.Int("modules", 32, "module corpus size")
	batch := flag.Int("batch", 16, "items per /analyze/batch request")
	seed := flag.Int64("seed", 1, "schedule seed")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew for the hot mix (> 1)")
	out := flag.String("o", "BENCH_SERVE.json", "output path (\"-\" for stdout)")
	verify := flag.Bool("verify", false, "assert byte-identical responses across every node (and -single)")
	requirePeerFill := flag.Bool("require-peer-fill", false, "fail unless fleet peer fills > 0")
	flag.BoolVar(&quiet, "quiet", false, "suppress progress output")
	versionFlag := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("jload"))
		return
	}

	if *addrsFlag == "" {
		fatalf("-addrs is required")
	}
	addrs := strings.Split(*addrsFlag, ",")
	mixes := strings.Split(*mixFlag, ",")

	logf("compiling %d-module corpus", *modules)
	corpus := buildCorpus(*modules, 0)

	var rep report
	rep.Config.Addrs = addrs
	rep.Config.Single = *single
	rep.Config.Mixes = mixes
	rep.Config.N = *n
	rep.Config.Concurrency = *c
	rep.Config.Modules = *modules
	rep.Config.Batch = *batch
	rep.Config.Seed = *seed
	rep.Config.ZipfS = *zipfS

	targets := []struct {
		name  string
		addrs []string
	}{{"fleet", addrs}}
	if *single != "" {
		targets = append(targets, struct {
			name  string
			addrs []string
		}{"single", []string{*single}})
	}

	var hotFleet, hotSingle float64
	for _, tgt := range targets {
		for _, mix := range mixes {
			if tgt.name == "single" && mix != "hot" {
				continue // the baseline only needs the trajectory mix
			}
			r := runMix(mix, tgt.name, tgt.addrs, corpus, *n, *c, *batch, *seed, *zipfS)
			rep.Rows = append(rep.Rows, r)
			logf("%-6s %-5s qps=%8.1f p50=%6.2fms p95=%6.2fms p99=%6.2fms tiers l/p/m=%d/%d/%d errors=%d",
				tgt.name, mix, r.QPS, r.P50Ms, r.P95Ms, r.P99Ms,
				r.TierLocal, r.TierPeer, r.TierMiss, r.Errors)
			if r.Errors > 0 {
				fatalf("%s/%s: %d failed requests", tgt.name, mix, r.Errors)
			}
			if mix == "hot" {
				if tgt.name == "fleet" {
					hotFleet = r.QPS
				} else {
					hotSingle = r.QPS
				}
			}
		}
	}
	if hotSingle > 0 {
		rep.HotSpeedup = hotFleet / hotSingle
		logf("hot-mix trajectory: fleet %.1f qps vs single %.1f qps (%.2fx)",
			hotFleet, hotSingle, rep.HotSpeedup)
	}

	rep.Fleet = scrapeFleet(addrs)
	var fills float64
	for _, m := range rep.Fleet {
		fills += m.PeerFills
	}
	if *requirePeerFill && fills == 0 {
		fatalf("no peer fills observed across the fleet (janitizer_cluster_peer_fill_total == 0)")
	}

	if *verify {
		verifyAddrs := addrs
		if *single != "" {
			verifyAddrs = append(append([]string{}, addrs...), *single)
		}
		verifyFleet(verifyAddrs, corpus)
		logf("verify: all %d nodes byte-identical over %d modules x 3 tools",
			len(verifyAddrs), len(corpus))
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
	} else {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatalf("%v", err)
		}
		logf("wrote %s", *out)
	}
}

// buildCorpus compiles n distinct modules. gen selects a disjoint
// generation (the cold mix needs modules the warm phases never touched).
func buildCorpus(n, gen int) []*obj.Module {
	mods := make([]*obj.Module, n)
	for i := range mods {
		src := fmt.Sprintf(`
int work(int n) {
	int j;
	int s;
	s = %d;
	for (j = 0; j < n; j = j + 1) { s = s + j * %d; }
	return s;
}
int main() { return work(12); }
`, gen*1_000_000+i, i%7+1)
		mod, err := cc.Compile(src, cc.Options{
			Module: fmt.Sprintf("jload-g%d-m%d", gen, i), O2: true,
		})
		if err != nil {
			fatalf("corpus compile: %v", err)
		}
		mods[i] = mod
	}
	return mods
}

// mixedTools are the tool configurations the mixed mix cycles through.
var mixedTools = []string{"jasan", "jcfi", "jmsan"}

// schedule builds the deterministic request sequence for one mix.
func schedule(mix string, addrs []string, corpus []*obj.Module, n int,
	seed int64, zipfS float64) []request {

	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	switch mix {
	case "hot", "batch":
		zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(corpus)-1))
		for i := 0; i < n; i++ {
			reqs = append(reqs, request{
				addr: addrs[i%len(addrs)],
				tool: "jasan",
				mod:  corpus[int(zipf.Uint64())],
			})
		}
	case "cold":
		// Fresh generation: never-seen modules, each requested once.
		if n > 256 {
			n = 256 // compile cost is client-side; keep the all-miss phase bounded
		}
		fresh := buildCorpus(n, 1)
		for i := 0; i < n; i++ {
			reqs = append(reqs, request{
				addr: addrs[i%len(addrs)],
				tool: "jasan",
				mod:  fresh[i],
			})
		}
	case "mixed":
		for i := 0; i < n; i++ {
			reqs = append(reqs, request{
				addr: addrs[i%len(addrs)],
				tool: mixedTools[rng.Intn(len(mixedTools))],
				mod:  corpus[rng.Intn(len(corpus))],
			})
		}
	default:
		fatalf("unknown mix %q (have hot, cold, mixed, batch)", mix)
	}
	return reqs
}

// runMix warms the target (hot/batch/mixed mixes only — cold measures the
// miss path), then replays the mix schedule through c concurrent clients
// per target node — offered load is held constant per node, so QPS at
// equal latency measures per-node capacity times fleet size.
func runMix(mix, target string, addrs []string, corpus []*obj.Module,
	n, c, batchSize int, seed int64, zipfS float64) row {

	c *= len(addrs)
	if mix != "cold" {
		warm(addrs, corpus, mix)
	}
	reqs := schedule(mix, addrs, corpus, n, seed, zipfS)
	r := row{Target: target, Mix: mix, Nodes: len(addrs)}

	var latencies []time.Duration
	var errs int
	tiers := map[string]int{}
	var mu sync.Mutex

	start := time.Now()
	if mix == "batch" {
		r.Requests = runBatches(addrs, reqs, c, batchSize, &latencies, tiers, &errs, &mu)
	} else {
		r.Requests = len(reqs)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					t0 := time.Now()
					tier, err := postAnalyze(reqs[i].addr, reqs[i].tool, reqs[i].mod, nil)
					d := time.Since(t0)
					mu.Lock()
					latencies = append(latencies, d)
					if err != nil {
						errs++
						logf("request error: %v", err)
					} else {
						tiers[tier]++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	r.DurationS = time.Since(start).Seconds()
	r.Errors = errs
	r.TierLocal = tiers[string(anserve.TierLocal)]
	r.TierPeer = tiers[string(anserve.TierPeer)]
	r.TierMiss = tiers[string(anserve.TierMiss)]
	if r.DurationS > 0 {
		r.QPS = float64(r.Requests) / r.DurationS
	}
	r.P50Ms, r.P95Ms, r.P99Ms = percentiles(latencies)
	return r
}

// warm touches every (module, tool) once per node so the measured phase is
// the steady-state hit path. First touches fan fills across the fleet —
// this is where peer-fill traffic originates.
func warm(addrs []string, corpus []*obj.Module, mix string) {
	tools := []string{"jasan"}
	if mix == "mixed" {
		tools = mixedTools
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, addr := range addrs {
		for _, tool := range tools {
			for _, mod := range corpus {
				wg.Add(1)
				go func(addr, tool string, mod *obj.Module) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					if _, err := postAnalyze(addr, tool, mod, nil); err != nil {
						fatalf("warmup: %v", err)
					}
				}(addr, tool, mod)
			}
		}
	}
	wg.Wait()
}

// runBatches groups the schedule into batchSize items per POST
// /analyze/batch call, round-robining batches across nodes. Returns the
// number of items (the row's request count).
func runBatches(addrs []string, reqs []request, c, batchSize int,
	latencies *[]time.Duration, tiers map[string]int, errs *int,
	mu *sync.Mutex) int {

	type batchCall struct {
		addr string
		req  anserve.BatchRequest
	}
	var calls []batchCall
	for i := 0; i < len(reqs); i += batchSize {
		end := i + batchSize
		if end > len(reqs) {
			end = len(reqs)
		}
		call := batchCall{addr: addrs[(i/batchSize)%len(addrs)]}
		for _, rq := range reqs[i:end] {
			call.req.Requests = append(call.req.Requests, anserve.BatchItem{
				Tool: rq.tool, Module: rq.mod.Marshal(),
			})
		}
		calls = append(calls, call)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				body, _ := json.Marshal(calls[i].req)
				t0 := time.Now()
				resp, err := client.Post("http://"+calls[i].addr+"/analyze/batch",
					"application/json", bytes.NewReader(body))
				d := time.Since(t0)
				mu.Lock()
				*latencies = append(*latencies, d)
				mu.Unlock()
				if err != nil {
					mu.Lock()
					*errs += len(calls[i].req.Requests)
					mu.Unlock()
					continue
				}
				var br anserve.BatchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					*errs += len(calls[i].req.Requests)
				} else {
					for _, res := range br.Results {
						if res.Error != nil {
							*errs++
						} else {
							tiers[res.Tier]++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return len(reqs)
}

// postAnalyze issues one POST /analyze; returns the X-Cache tier. When
// want is non-nil the response body must equal it byte-for-byte.
func postAnalyze(addr, tool string, mod *obj.Module, want []byte) (string, error) {
	resp, err := client.Post(
		"http://"+addr+"/analyze?tool="+tool,
		"application/octet-stream", bytes.NewReader(mod.Marshal()))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s tool=%s module=%s: status %d: %s",
			addr, tool, mod.Name, resp.StatusCode, bytes.TrimSpace(body))
	}
	if want != nil && !bytes.Equal(body, want) {
		return "", fmt.Errorf("%s tool=%s module=%s: response bytes differ",
			addr, tool, mod.Name)
	}
	return resp.Header.Get("X-Cache"), nil
}

// verifyFleet posts every (module, tool) to every node and requires
// byte-identical responses — the correctness acceptance gate.
func verifyFleet(addrs []string, corpus []*obj.Module) {
	for _, mod := range corpus {
		for _, tool := range mixedTools {
			var want []byte
			for _, addr := range addrs {
				if want == nil {
					var err error
					if _, err = postAnalyze(addr, tool, mod, nil); err != nil {
						fatalf("verify: %v", err)
					}
					// Re-fetch to pin the reference bytes.
					resp, err := client.Post("http://"+addr+"/analyze?tool="+tool,
						"application/octet-stream", bytes.NewReader(mod.Marshal()))
					if err != nil {
						fatalf("verify: %v", err)
					}
					want, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						fatalf("verify: %v", err)
					}
					continue
				}
				if _, err := postAnalyze(addr, tool, mod, want); err != nil {
					fatalf("verify: fleet results diverge: %v", err)
				}
			}
		}
	}
}

// scrapeFleet reads each node's /metrics for the shard-balance columns.
func scrapeFleet(addrs []string) []nodeMetrics {
	var out []nodeMetrics
	for _, addr := range addrs {
		m := nodeMetrics{Addr: addr}
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			logf("scrape %s: %v", addr, err)
			out = append(out, m)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			out = append(out, m)
			continue
		}
		samples, err := telemetry.ParsePrometheus(body)
		if err != nil {
			logf("scrape %s: %v", addr, err)
			out = append(out, m)
			continue
		}
		for _, s := range samples {
			switch s.Name {
			case "janitizer_analyze_submitted_total":
				m.Submitted = s.Value
			case "janitizer_analyzed_total":
				m.Analyzed = s.Value
			case "janitizer_cluster_peer_fill_total":
				m.PeerFills = s.Value
			}
		}
		out = append(out, m)
	}
	return out
}

// percentiles returns p50/p95/p99 in milliseconds.
func percentiles(lat []time.Duration) (p50, p95, p99 float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.95), at(0.99)
}
