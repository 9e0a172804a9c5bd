package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grammar"
)

// Probe shapes: the engine calls each workload makes. Decode steps start
// at a chat prompt's mean length (20 tokens) and run a chat request's 64
// tokens; prefill ingests a document prompt in serve's default 32-token
// chunks.
const (
	probeCtx    = 20
	probeSteps  = chatTokens
	probeChunk  = 32
	probeDocLen = 192
	probeReps   = 5
)

// probeTransformer times BatchedPredictor.Step at batch 1 and 8 and
// Prefill in 32-token chunks directly, outside any serving loop. Step
// figures are µs per call and allocations per call; prefill is µs per
// prompt token. Each is the median over probeReps fresh sequences.
func probeTransformer(model *core.LLM, seed uint64) map[string]float64 {
	rng := stream(seed, "probe")
	vocab := model.Model.Cfg.Vocab
	randIDs := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(vocab)
		}
		return ids
	}
	out := map[string]float64{}
	for _, batch := range []int{1, 8} {
		var us, allocs []float64
		for range probeReps {
			bp := model.Model.NewBatchedPredictor()
			seqs := make([]int, batch)
			for i := range seqs {
				seqs[i] = bp.Add()
				bp.Prefill(seqs[i], randIDs(probeCtx))
			}
			toks := randIDs(batch)
			bp.Step(seqs, toks) // first step sizes the batch scratch
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			for range probeSteps - 1 {
				bp.Step(seqs, toks)
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&after)
			us = append(us, float64(el.Nanoseconds())/1e3/float64(probeSteps-1))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(probeSteps-1))
		}
		sfx := map[int]string{1: ".b1", 8: ".b8"}[batch]
		out["transformer.step_us"+sfx] = median(us)
		out["transformer.allocs_per_step"+sfx] = median(allocs)
	}
	var pf []float64
	for range probeReps {
		bp := model.Model.NewBatchedPredictor()
		id := bp.Add()
		doc := randIDs(probeDocLen)
		t0 := time.Now()
		for i := 0; i < len(doc); i += probeChunk {
			bp.Prefill(id, doc[i:i+probeChunk])
		}
		pf = append(pf, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(doc)))
	}
	out["transformer.prefill_us_per_tok.c32"] = median(pf)
	return out
}

// probeTokenizer times the word tokenizer's Encode of document prompts,
// the call serve makes on its loop goroutine when it admits a request.
func probeTokenizer(model *core.LLM, seed uint64) float64 {
	g := grammar.TinyEnglish()
	rng := stream(seed, "probe-docs")
	docs := make([]string, 32)
	for i := range docs {
		docs[i] = docPrompt(g, rng)
	}
	var us []float64
	for range probeReps {
		t0 := time.Now()
		for _, d := range docs {
			model.Tok.Encode(d)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(docs)))
	}
	return median(us)
}
