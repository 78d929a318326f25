package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anserve"
)

// workload is one traffic mix. Set-up builds its inputs from the seed; it
// then serves rounds of the same operations, each round on fresh state.
type workload interface {
	// ops is the number of operations in one round.
	ops() int
	// begin prepares fresh state for a round. It is not timed.
	begin(rc *round) error
	// do runs operation i of the round. The closed-loop workers call it
	// concurrently; a non-nil error counts the operation as failed.
	do(rc *round, i int) error
	// end checks the round's outputs against each other and against the
	// earlier rounds, and releases the round's state. It is not timed.
	end(rc *round) error
	// finish runs the checks made once after the rounds, recording their
	// failures in rep and returning how many it attempted. It is not timed.
	finish(rep *report) int
	// layers adds the per-layer values the workload computes itself from
	// its traced rounds.
	layers(vals map[string]float64)
	// slowdowns returns, for workloads that execute sanitized programs,
	// each scheme's geomean simulated slowdown over native.
	slowdowns() map[string]float64
	// summary returns workload-specific lines for the human-readable table.
	summary() []string
}

// workloadDef names a workload and builds it.
type workloadDef struct {
	name string
	// noun is what one operation is, for the human-readable table.
	noun  string
	setup func(cfg config) (workload, error)
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// Set-up runs at least setups times and repeats until setupSeconds
	// have been spent, at most maxSetups times; setup_s is the median.
	setups       int
	setupSeconds float64
	// tiny shrinks every round to a handful of operations (tests only).
	tiny bool
	// workers is the closed loop's concurrency.
	workers int
}

// round is the context of one round of operations.
type round struct {
	index  int  // 0 is the warm-up round
	n      int  // operations in this round
	traced bool // spans and counters are recorded
	tr     *tracer
	lat    []time.Duration // per-operation latency
	kern   []float64       // the worker's kernel time around each operation, in seconds
}

// trace opens an operation's root span; a no-op in untraced rounds.
func (rc *round) trace(name string, i int) *opTrace {
	var t *tracer
	if rc.traced {
		t = rc.tr
	}
	return t.op(name, rc.index, i)
}

// add accumulates a per-layer counter; a no-op in untraced rounds.
func (rc *round) add(name string, v float64) {
	if rc.traced {
		rc.tr.add(name, v)
	}
}

// addServiceStats accumulates an analysis service's scheduler counters.
func (rc *round) addServiceStats(st anserve.SchedStats) {
	rc.add("anserve.submitted", float64(st.Submitted))
	rc.add("anserve.cache_hits", float64(st.CacheHits))
	rc.add("anserve.analyzed", float64(st.Analyzed))
	rc.add("anserve.coalesced", float64(st.Coalesced))
	rc.add("anserve.rejected", float64(st.Rejected))
	rc.add("anserve.errors", float64(st.Errors))
}

// report is the outcome of one workload run.
type report struct {
	rounds    int
	attempted int
	failed    int
	failures  []string
	metrics   []metricVal
	slowdowns map[string]float64
	extra     []string
}

type metricVal struct {
	def   metricDef
	value float64
}

// maxListed bounds how many failures a report prints one by one.
const maxListed = 20

// maxSetups bounds the set-up repetitions of a workload whose set-up is
// short.
const maxSetups = 50

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxListed {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// pool runs fn(0..n-1) on a closed loop of workers: each worker takes the
// next index only after finishing its previous one.
func pool(workers, n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// runRound runs one round and records its latencies and failures. It
// reports false when the round could not start.
func runRound(w workload, rc *round, kernels []*kernel, rep *report) bool {
	if err := w.begin(rc); err != nil {
		rep.fail("round %d: begin: %v", rc.index, err)
		return false
	}
	rc.lat = make([]time.Duration, rc.n)
	rc.kern = make([]float64, rc.n)
	errs := make([]error, rc.n)
	pool(len(kernels), rc.n, func(wk, i int) {
		k := kernels[wk]
		before := k.speed()
		t := time.Now()
		errs[i] = w.do(rc, i)
		rc.lat[i] = time.Since(t)
		rc.kern[i] = (before + k.speed()) / 2
	})
	rep.attempted += rc.n
	for i, err := range errs {
		if err != nil {
			rep.fail("round %d op %d: %v", rc.index, i, err)
		}
	}
	if err := w.end(rc); err != nil {
		rep.fail("round %d: %v", rc.index, err)
	}
	return true
}

// run executes one workload: the set-ups, a warm-up round, then measured
// rounds until the time budget is spent. Untraced, it reports the
// end-to-end metrics; traced, it alternates untraced and traced rounds
// and reports the per-layer metrics.
func run(def *workloadDef, cfg config, tr *tracer) (*report, error) {
	rep := &report{}
	kernels := make([]*kernel, cfg.workers)
	for i := range kernels {
		k, err := newKernel()
		if err != nil {
			return nil, fmt.Errorf("calibration kernel: %w", err)
		}
		defer k.close()
		kernels[i] = k
	}

	// Repeating a short set-up gives it a steady median. The last set-up's
	// state is the one measured.
	var w workload
	var setupTimes []float64
	var spent float64
	for len(setupTimes) < cfg.setups || (spent < cfg.setupSeconds && len(setupTimes) < maxSetups) {
		t := time.Now()
		var err error
		w, err = def.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		spent += setupTimes[len(setupTimes)-1]
	}

	// The warm-up round runs the first quarter of a round's operations and
	// is checked like any other, but not measured.
	runRound(w, &round{index: 0, n: max(1, w.ops()/4), tr: tr}, kernels, rep)

	var untraced, traced []*round
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 1; ; i++ {
		rc := &round{index: i, n: w.ops(), tr: tr, traced: cfg.trace && i%2 == 0}
		ok := runRound(w, rc, kernels, rep)
		switch {
		case !ok:
		case rc.traced:
			traced = append(traced, rc)
		default:
			untraced = append(untraced, rc)
		}
		elapsed := time.Since(start)
		perRound := elapsed / time.Duration(i)
		if elapsed+perRound > budget && (!cfg.trace || i >= 2) {
			break
		}
	}
	rep.rounds = len(untraced) + len(traced)
	rep.attempted += w.finish(rep)

	rep.slowdowns = w.slowdowns()
	rep.extra = w.summary()
	for _, s := range dynamicSchemes {
		if v, ok := rep.slowdowns[s]; ok {
			rep.extra = append(rep.extra, fmt.Sprintf("sim_slowdown.%-14s %.4fx", s, v))
		}
	}
	if !cfg.trace {
		lat := opLatencies(untraced, true)
		raw := opLatencies(untraced, false)
		vals := map[string]float64{
			"setup_s":     median(setupTimes),
			"ops_per_s":   throughput(lat, cfg.workers),
			"p50_ms":      1e3 * quantile(lat, 0.50),
			"p99_ms":      1e3 * quantile(lat, 0.99),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			rep.metrics = append(rep.metrics, metricVal{d, vals[d.name]})
		}
		rep.extra = append(rep.extra,
			fmt.Sprintf("%d operations with %d latency samples each (%d beyond p99); %d set-ups",
				len(lat), len(untraced), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), len(setupTimes)),
			fmt.Sprintf("unnormalized: ops_per_s %.2f  p50_ms %.4f  p99_ms %.4f  (kernel %.4f ms)",
				throughput(raw, cfg.workers), 1e3*quantile(raw, 0.5),
				1e3*quantile(raw, 0.99), 1e3*kernelMedian(untraced)))
		return rep, nil
	}

	vals := layerValues(tr, len(traced))
	for s, v := range rep.slowdowns {
		vals["sim_slowdown."+s] = v
	}
	w.layers(vals)
	vals["trace_overhead_frac"] = 1 -
		throughput(opLatencies(traced, true), cfg.workers)/throughput(opLatencies(untraced, true), cfg.workers)
	for _, d := range perLayer {
		rep.metrics = append(rep.metrics, metricVal{d, vals[d.name]})
	}
	return rep, nil
}

// opLatencies returns, sorted, each operation's median latency in seconds
// over the rounds. Every round runs the same operations, each at a
// different moment, so the median of an operation's rounds leaves out the
// rounds it shared with a burst of load from outside the benchmark.
func opLatencies(rs []*round, norm bool) []float64 {
	if len(rs) == 0 {
		return nil
	}
	out := make([]float64, rs[0].n)
	per := make([]float64, len(rs))
	for i := range out {
		for r, rc := range rs {
			per[r] = rc.lat[i].Seconds()
			if norm {
				per[r] *= kernelRef / rc.kern[i]
			}
		}
		out[i] = median(per)
	}
	sort.Float64s(out)
	return out
}

// kernelMedian is the median kernel time the rounds' operations were
// normalized by.
func kernelMedian(rs []*round) float64 {
	var all []float64
	for _, rc := range rs {
		all = append(all, rc.kern...)
	}
	return median(all)
}

// throughput is the closed loop's operations per second implied by the
// operations' median latencies: workers over the mean latency.
func throughput(lat []float64, workers int) float64 {
	var sum float64
	for _, l := range lat {
		sum += l
	}
	if sum == 0 {
		return 0
	}
	return float64(workers) * float64(len(lat)) / sum
}

// median of vs (0 for none).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of sorted values, linearly interpolated between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; where
// /proc is unavailable it falls back to the Go runtime's reserved memory.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			var kb float64
			if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
