package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/httpapi"
	"repro/internal/nn"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
	"repro/llm"
)

// modelConfig is the fixed model under test: big enough that a decode step
// (about 0.4 ms at batch 1 on a 2-vCPU host) spaces streamed tokens out, so
// inter-token gaps measure the program rather than the Go scheduler.
var modelConfig = transformer.Config{
	Dim: 128, Layers: 4, Heads: 4, Window: 256,
	Pos: transformer.PosLearned, Act: nn.GELU,
}

// corpusLines is the size of the PCFG corpus the word tokenizer is built on.
const corpusLines = 2000

// buildModel makes the model under test: a word tokenizer over a seeded
// TinyEnglish corpus and a transformer with random weights drawn from the
// seed. Weights need no training: the benchmark measures serving, and the
// oracle compares against the same weights.
func buildModel(seed uint64) (*core.LLM, error) {
	lines := corpus.PCFGText(grammar.TinyEnglish(), corpusLines, sentenceMax, stream(seed, "corpus"))
	tok := tokenizer.NewWord(lines)
	cfg := modelConfig
	cfg.Vocab = tok.VocabSize()
	m, err := transformer.New(cfg, stream(seed, "weights"))
	if err != nil {
		return nil, fmt.Errorf("build model: %w", err)
	}
	return &core.LLM{Tok: tok, Model: m, Cfg: core.Config{Tokenizer: core.WordTok, Model: cfg}}, nil
}

// system is one running system under test. The in-process workloads use a
// single llm.Server; chat_router runs two httpapi worker stacks behind an
// llm-router, all on loopback listeners.
type system struct {
	model   *core.LLM
	srv     *llm.Server     // in-process workloads
	workers []*serve.Server // chat_router
	router  *router.Router
	front   string // router base URL
	stops   []func()
}

// stats sums the serve counters of every batching loop in the system.
func (s *system) stats() serve.Stats {
	var sum serve.Stats
	add := func(st serve.Stats) {
		sum.Steps += st.Steps
		sum.StepRows += st.StepRows
		sum.Queued += st.Queued
		for i, n := range st.PrefillChunkHist {
			sum.PrefillChunkHist[i] += n
		}
	}
	if s.srv != nil {
		add(s.srv.Stats())
	}
	for _, w := range s.workers {
		add(w.Stats())
	}
	return sum
}

// close stops everything the system started, newest first, and waits for
// each listener's serve loop to return.
func (s *system) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// listen serves h on a loopback port and registers its shutdown.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	s.stops = append(s.stops, func() { hs.Close(); <-done })
	return "http://" + ln.Addr().String(), nil
}

// workerCount is the number of llm-serve stacks behind the router.
const workerCount = 2

// start builds and starts the system for workload w and warms it up. A
// non-nil tracer wraps the router and each worker handler.
func start(w *workload, seed uint64, tr *tracer, client *http.Client) (*system, error) {
	model, err := buildModel(seed)
	if err != nil {
		return nil, err
	}
	s := &system{model: model}
	if !w.router {
		s.srv = llm.NewServer(model, llm.ServerConfig{})
		s.stops = append(s.stops, s.srv.Close)
		if err := s.warm(seed); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	urls := make([]string, workerCount)
	for i := range urls {
		srv := serve.New(model, serve.Config{})
		s.stops = append(s.stops, srv.Close)
		s.workers = append(s.workers, srv)
		var h http.Handler = httpapi.New(srv, nil)
		if tr != nil {
			h = tr.wrap("worker", "router", i, h)
		}
		if urls[i], err = s.listen(h); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.router, err = router.New(router.Config{Backends: urls}, nil); err != nil {
		s.close()
		return nil, err
	}
	s.stops = append(s.stops, s.router.Close)
	var h http.Handler = s.router
	if tr != nil {
		h = tr.wrap("router", "client", -1, h)
	}
	if s.front, err = s.listen(h); err != nil {
		s.close()
		return nil, err
	}
	if err := waitHealthy(client, s.front); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmHTTP(client, seed, urls); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls the router's readiness endpoint until it answers 200.
func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router %s not ready after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmRequests is how many warm-up requests run concurrently per batching
// loop: enough to fill a MaxBatch-8 step, so the batch scratch arenas and
// the packed weights exist before timing starts.
const warmRequests = 8

// warmSet is the warm-up traffic: chat-shaped requests plus one document
// prompt for the prefill path. It is drawn from its own seed stream.
func warmSet(seed uint64) []request {
	g := grammar.TinyEnglish()
	rng := stream(seed, "warm")
	out := make([]request, warmRequests)
	for i := range out {
		out[i] = request{ID: uint64(i + 1), Prompt: chatPrompt(g, rng), Tokens: 16}
	}
	out[0].Prompt, out[0].Tokens = docPrompt(g, rng), docTokens
	return out
}

// warm runs the warm-up set through the in-process server.
func (s *system) warm(seed uint64) error {
	return concurrently(warmSet(seed), func(r request) error {
		_, err := s.srv.Do(context.Background(), llm.NewGenRequest(r.Prompt, r.options()...))
		return err
	})
}

// warmHTTP runs the warm-up set against every worker directly, then once
// through the router.
func (s *system) warmHTTP(client *http.Client, seed uint64, urls []string) error {
	for _, base := range append(urls, s.front) {
		err := concurrently(warmSet(seed), func(r request) error {
			o := streamHTTP(client, base, r, time.Now())
			return o.err
		})
		if err != nil {
			return fmt.Errorf("warm-up via %s: %w", base, err)
		}
	}
	return nil
}

// concurrently runs f over reqs on one goroutine each and joins the errors.
func concurrently(reqs []request, f func(request) error) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(r)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
