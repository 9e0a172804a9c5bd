package transformer

import "fmt"

// This file is the transformer side of speculative decoding: a verification
// pass that scores a whole block of drafted tokens in one chunked
// matrix-matrix sweep (PrefillAll / ExtendAll), and cache truncation
// (Rewind) that un-ingests the drafted suffix a verifier rejects.
//
// Rewind is a plain length decrement — no KV rows or interleaved key-pack
// lanes are cleared — and is still bitwise-exact, because stale state beyond
// the valid length is never read before being overwritten. Every entry
// point (Step, Prefill, PrefillAll and the Predictor calls built on them)
// feeds a sequence as one segment of the forward pass starting at its
// length start, and attend first rewrites rows [start, start+rows) of the
// key/value caches and their pack lanes — writes are position-addressed
// (kc.Row(pos), lane pos&15 of block pos>>4), so a re-ingested position
// lands exactly where its stale value sat — and then scores causally, with
// full-block reads capped at (start+rows)/16 and tail reads bounded by each
// row's own position: never past what this pass wrote.
//
// The rewind property test in rewind_test.go checks this bit for bit against
// predictors rebuilt from scratch, across window-boundary crossings, sparse
// and dense attention, and random Append/Extend/ExtendAll/Rewind schedules.

// Rewind discards the last n cached positions of batch sequence id, as if
// the tokens that produced them had never been fed. It panics when n is
// negative or exceeds the cached length. Other sequences are untouched (each
// owns its KV cache and key packs; the shared pass scratch holds no
// per-position state), and the sequence's next Step/Prefill continues from
// the truncated position with logits bitwise identical to a sequence that
// never saw the discarded tokens.
func (bp *BatchedPredictor) Rewind(id, n int) {
	s := bp.seq(id)
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("transformer: Rewind(%d) outside cached length %d", n, s.n))
	}
	s.n -= n
}

// PrefillAll feeds a chunk to one batch sequence and returns per-position
// logits: row r is bitwise identical to stepping the sequence alone through
// Step with ids[r]. This is the speculative-decoding verification pass —
// one blocked sweep scores a whole draft block, and the rows tell the
// acceptance loop where the target model first disagrees. Sequences not
// named are untouched, so the serving loop can run one request's
// verification pass between batched decode steps. Keep-last window
// truncation matches Prefill; it returns nil when no tokens remain to
// ingest.
//
// The returned rows are views into reusable scratch, valid until the next
// PrefillAll call.
func (bp *BatchedPredictor) PrefillAll(id int, ids []int) [][]float64 {
	logits := bp.chunk(id, ids, true, &bp.pfAll)
	if logits == nil {
		return nil
	}
	rows := logits.Shape[0]
	if cap(bp.pfAllOut) < rows {
		bp.pfAllOut = make([][]float64, rows)
	}
	out := bp.pfAllOut[:rows]
	for r := range out {
		out[r] = logits.Row(r)
	}
	return out
}
