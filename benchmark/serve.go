package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/anserve"
	"repro/internal/cc"
	"repro/internal/fuzz/gen"
	"repro/internal/juliet"
	"repro/internal/rules"
)

// corpusCase is one Juliet case of the serve corpus.
type corpusCase struct {
	Suite string `json:"suite"` // CWE number of the suite: "122", "415", "416", "457"
	ID    string `json:"id"`
	Good  string `json:"good"`
	Bad   string `json:"bad"`
}

// suiteTool is each Juliet suite's own sanitizer.
var suiteTool = map[string]string{"122": "jasan", "415": "jtsan", "416": "jtsan", "457": "jmsan"}

// fuzzTools analyze the never-seen generated programs.
var fuzzTools = []string{"jasan", "jmsan", "jtsan", "comprehensive"}

// serveReq is one request of the mix.
type serveReq struct {
	Path string `json:"path"` // "/run" or "/analyze"
	// Variant indexes the corpus variants (2*case, +1 for the bad one), or
	// the generated programs when Fuzz is set.
	Variant int    `json:"variant"`
	Fuzz    bool   `json:"fuzz"`
	Tool    string `json:"tool"`
}

// serveInputs is everything the serve workload sends.
type serveInputs struct {
	Corpus []corpusCase `json:"corpus"`
	Fuzz   []string     `json:"fuzz"` // MiniC sources of never-seen programs
	Reqs   []serveReq   `json:"reqs"`
}

// casesPerSuite is how many cases each Juliet suite contributes.
const casesPerSuite = 12

// serveMix draws the corpus and n requests: 60% /run and 30% /analyze of
// corpus variants with Zipf(1.1) popularity, under the suite's sanitizer or
// comprehensive, and 10% /analyze of generated programs no round repeats.
func serveMix(seed int64, n int) *serveInputs {
	r := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	suites := []struct {
		cwe   string
		cases []juliet.Case
	}{
		{"122", juliet.Suite()}, {"415", juliet.Suite415()},
		{"416", juliet.Suite416()}, {"457", juliet.Suite457()},
	}
	for _, s := range suites {
		for _, i := range r.Perm(len(s.cases))[:casesPerSuite] {
			c := s.cases[i]
			in.Corpus = append(in.Corpus, corpusCase{Suite: s.cwe, ID: c.ID, Good: c.Good, Bad: c.Bad})
		}
	}
	// Popularity ranks cycle through the suites and through good and bad
	// variants, so under every seed each suite and each kind of variant
	// gets the same share of the traffic; the seed picks which case holds
	// each rank.
	ns := len(suites)
	perms := make([][]int, ns)
	for s := range perms {
		perms[s] = r.Perm(casesPerSuite)
	}
	rank := make([]int, 2*len(in.Corpus)) // popularity rank → variant
	for i := range rank {
		s, bad, slot := i%ns, (i/ns)%2, i/(2*ns)
		rank[i] = 2*(s*casesPerSuite+perms[s][slot]) + bad
	}
	z := rand.NewZipf(r, 1.1, 1, uint64(len(rank)-1))
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x >= 0.9 {
			in.Reqs = append(in.Reqs, serveReq{Path: "/analyze", Variant: len(in.Fuzz), Fuzz: true,
				Tool: fuzzTools[r.Intn(len(fuzzTools))]})
			in.Fuzz = append(in.Fuzz, gen.New(r).Render())
			continue
		}
		v := rank[z.Uint64()]
		tool := suiteTool[in.Corpus[v/2].Suite]
		if r.Intn(2) == 0 {
			tool = "comprehensive"
		}
		path := "/run"
		if x >= 0.6 {
			path = "/analyze"
		}
		in.Reqs = append(in.Reqs, serveReq{Path: path, Variant: v, Tool: tool})
	}
	return in
}

// serveWL posts the request mix to a fresh janitizerd handler per round.
type serveWL struct {
	in      *serveInputs
	corpus  [][]byte // serialized variants, indexed like serveReq.Variant
	fuzz    [][]byte
	workers int

	svc    *anserve.Service
	srv    *http.Server
	served chan error
	client *http.Client
	base   string

	mu    sync.Mutex
	first map[string][sha256.Size]byte // first /analyze answer per (variant, tool)
}

func setupServe(c config) (workload, error) {
	n := 8000
	if c.tiny {
		n = 40
	}
	in := serveMix(c.seed, n)
	s := &serveWL{in: in, workers: c.workers}
	for _, cs := range in.Corpus {
		for _, src := range []string{cs.Good, cs.Bad} {
			mod, err := cc.Compile(src, cc.Options{Module: "case", O2: true})
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", cs.ID, err)
			}
			s.corpus = append(s.corpus, mod.Marshal())
		}
	}
	for i, src := range in.Fuzz {
		mod, err := cc.Compile(src, cc.Options{Module: fmt.Sprintf("gen%d", i), O2: true})
		if err != nil {
			return nil, fmt.Errorf("compile generated program %d: %w", i, err)
		}
		s.fuzz = append(s.fuzz, mod.Marshal())
	}
	return s, nil
}

func (s *serveWL) ops() int { return len(s.in.Reqs) }

func (s *serveWL) begin(*round) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.svc = anserve.New(anserve.Config{})
	s.srv = &http.Server{Handler: s.svc.Handler(anserve.DefaultTools())}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.workers,
		MaxIdleConnsPerHost: s.workers,
		DisableCompression:  true,
	}}
	s.first = map[string][sha256.Size]byte{}
	return nil
}

func (s *serveWL) do(rc *round, i int) error {
	req := s.in.Reqs[i]
	var body []byte
	if req.Fuzz {
		body = s.fuzz[req.Variant]
	} else {
		body = s.corpus[req.Variant]
	}
	ot := rc.trace("http"+strings.Replace(req.Path, "/", ".", 1), i)
	resp, err := s.client.Post(s.base+req.Path+"?tool="+url.QueryEscape(req.Tool),
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		ot.end()
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ot.end()
	var what string
	if req.Fuzz {
		what = fmt.Sprintf("%s %s generated program %d", req.Path, req.Tool, req.Variant)
	} else {
		cs := s.in.Corpus[req.Variant/2]
		what = fmt.Sprintf("%s %s %s/%s", req.Path, req.Tool, cs.ID, goodBad(req.Variant))
	}
	if err != nil {
		return fmt.Errorf("%s: read: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", what, resp.StatusCode, b)
	}
	if req.Path == "/run" {
		return s.checkRun(req, b, what)
	}
	f, err := rules.Unmarshal(b)
	if err != nil {
		return fmt.Errorf("%s: rule file: %w", what, err)
	}
	if req.Fuzz {
		if want := fmt.Sprintf("gen%d", req.Variant); f.Module != want {
			return fmt.Errorf("%s: rule file for module %q", what, f.Module)
		}
		return nil
	}
	key := fmt.Sprintf("%d/%s", req.Variant, req.Tool)
	sum := sha256.Sum256(b)
	s.mu.Lock()
	prev, seen := s.first[key]
	if !seen {
		s.first[key] = sum
	}
	s.mu.Unlock()
	if seen && prev != sum {
		return fmt.Errorf("%s: repeated /analyze returned different bytes", what)
	}
	return nil
}

func goodBad(variant int) string {
	if variant%2 == 1 {
		return "bad"
	}
	return "good"
}

// checkRun holds a /run answer to the case's ground truth: a bad variant
// reports its suite's CWE (a heap-to-stack CWE-122 case may surface as
// the stack canary's CWE-121), a good one reports nothing.
func (s *serveWL) checkRun(req serveReq, b []byte, what string) error {
	var rr anserve.RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		return fmt.Errorf("%s: response: %w", what, err)
	}
	cwe := s.in.Corpus[req.Variant/2].Suite
	if req.Variant%2 == 0 {
		if len(rr.Violations) > 0 {
			return fmt.Errorf("%s: %d violations on a good variant, first %s %s",
				what, len(rr.Violations), rr.Violations[0].Kind, rr.Violations[0].CWE)
		}
		return nil
	}
	for _, v := range rr.Violations {
		if v.CWE == "CWE-"+cwe || (cwe == "122" && v.CWE == "CWE-121") {
			return nil
		}
	}
	return fmt.Errorf("%s: no CWE-%s violation among %d reported", what, cwe, len(rr.Violations))
}

func (s *serveWL) end(rc *round) error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	rc.addServiceStats(s.svc.Stats().Sched)
	s.svc, s.srv, s.client = nil, nil, nil
	return err
}

func (s *serveWL) finish(*report) int { return 0 }

func (s *serveWL) layers(map[string]float64) {}

func (*serveWL) slowdowns() map[string]float64 { return nil }

func (s *serveWL) summary() []string {
	var run, an, fz int
	for _, r := range s.in.Reqs {
		switch {
		case r.Fuzz:
			fz++
		case r.Path == "/run":
			run++
		default:
			an++
		}
	}
	return []string{fmt.Sprintf("%d requests per round: %d /run, %d /analyze of %d corpus variants, %d /analyze of generated programs",
		len(s.in.Reqs), run, an, len(s.corpus), fz)}
}
