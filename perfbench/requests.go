package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/grammar"
	"repro/internal/mathx"
	"repro/internal/sample"
)

// request is one generated generation request. ID doubles as the request's
// sampling seed: it is unique within a run, so the trace wrappers read it
// from the body to tie the spans of one request together.
type request struct {
	ID      uint64
	Prompt  string
	Tokens  int
	TopP    bool          // top-p 0.9 at temperature 0.8 instead of greedy
	Session string        // non-empty: session-keyed placement at the router
	Doc     bool          // long-prompt, short-output document request
	Due     time.Duration // open loop: send time as an offset from the window start
}

// options are the generation options the request asks for, shared by the
// served request and the unbatched oracle.
func (r request) options() []sample.Option {
	strat := sample.Strategy(sample.Greedy{})
	if r.TopP {
		strat = sample.TopP{P: 0.9, T: 0.8}
	}
	return []sample.Option{sample.WithMaxTokens(r.Tokens), sample.WithStrategy(strat), sample.WithSeed(r.ID)}
}

// Request shapes shared by the workloads.
const (
	chatTokens   = 64
	docTokens    = 8
	poolSize     = 1024 // closed-loop prompt pool, cycled with fresh IDs
	sessionCount = 64   // distinct session keys: repeats for affinity, enough to balance the ring
	sentenceMax  = 8    // PCFG derivation depth
)

// stream returns a seeded RNG for one named use of the workload seed, so
// the prompt pool, the schedule and the oracle sample draw independent
// streams.
func stream(seed uint64, use string) *mathx.RNG {
	h := seed
	for _, c := range use {
		h = h*1099511628211 + uint64(c)
	}
	return mathx.NewRNG(h)
}

// idBase spreads request IDs of different seeds apart; IDs within a run are
// idBase+i and so never collide.
func idBase(seed uint64) uint64 { return stream(seed, "id").Uint64() &^ (1<<32 - 1) }

// words draws PCFG sentences until n words are collected and returns
// exactly n of them.
func words(g *grammar.Grammar, rng *mathx.RNG, n int) string {
	var ws []string
	for len(ws) < n {
		ws = append(ws, g.GenerateSentence(rng, sentenceMax)...)
	}
	return strings.Join(ws[:n], " ")
}

// chatPrompt is an 8–32-word prompt.
func chatPrompt(g *grammar.Grammar, rng *mathx.RNG) string { return words(g, rng, 8+rng.Intn(25)) }

// docPrompt is a 150–200-word prompt.
func docPrompt(g *grammar.Grammar, rng *mathx.RNG) string { return words(g, rng, 150+rng.Intn(51)) }

// requestPool is the closed-loop request set of a workload: chat-shaped
// greedy requests, half of them session-keyed when keyed is set.
type requestPool struct {
	base uint64
	reqs []request
}

func newPool(seed uint64, workload string, keyed bool) *requestPool {
	g := grammar.TinyEnglish()
	rng := stream(seed, workload)
	p := &requestPool{base: idBase(seed), reqs: make([]request, poolSize)}
	for i := range p.reqs {
		r := request{Prompt: chatPrompt(g, rng), Tokens: chatTokens}
		if keyed && rng.Intn(2) == 0 {
			r.Session = "s" + strconv.Itoa(rng.Intn(sessionCount))
		}
		p.reqs[i] = r
	}
	return p
}

// at returns the i-th request of the endless stream the pool defines.
func (p *requestPool) at(i int) request {
	r := p.reqs[i%len(p.reqs)]
	r.ID = p.base + uint64(i)
	return r
}

// openSchedule draws the mixed_open arrivals for one window: a Poisson
// process at rate req/s, conditioned on its expected count (given the
// count, Poisson arrival times are independent and uniform over the
// window), so seeds differ in where arrivals cluster rather than in how
// much work they bring. Exactly a fifth are document requests; the rest are
// chat requests, half greedy and half top-p.
func openSchedule(seed uint64, rate float64, window time.Duration) []request {
	g := grammar.TinyEnglish()
	rng := stream(seed, "mixed_open")
	n := int(math.Round(rate * window.Seconds()))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(due)
	isDoc := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/5] {
		isDoc[i] = true
	}
	base := idBase(seed)
	out := make([]request, n)
	for i := range out {
		r := request{ID: base + uint64(i), Due: due[i]}
		if isDoc[i] {
			r.Doc, r.Prompt, r.Tokens = true, docPrompt(g, rng), docTokens
		} else {
			r.Prompt, r.Tokens, r.TopP = chatPrompt(g, rng), chatTokens, rng.Intn(2) == 0
		}
		out[i] = r
	}
	return out
}
