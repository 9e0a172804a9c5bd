package transformer

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// segment is one sequence's share of a forward pass: the tokens to feed at
// its current length s.n, s.n+1, …. A decode step passes one one-token
// segment per sequence; a prefill chunk or a verification pass passes one
// segment holding the whole chunk.
type segment struct {
	s      *batchSeq
	tokens []int
}

// scratch holds every intermediate of a forward pass, grown to the largest
// row count seen and reused, so steady-state passes allocate nothing. Each
// row range of a decode step owns one; chunk passes take one from a
// per-model sync.Pool (returned when the pass completes), so predictors
// created per request share warm buffers instead of each paying a
// first-call allocation.
type scratch struct {
	x       *tensor.Tensor // residual stream (rows×Dim)
	norm    *tensor.Tensor // layer-norm output (rows×Dim)
	q       *tensor.Tensor // all heads' queries, head-major (rows×Dim)
	k       *tensor.Tensor // all heads' keys (rows×Dim)
	v       *tensor.Tensor // all heads' values (rows×Dim)
	concat  *tensor.Tensor // concatenated head outputs (rows×Dim)
	att     *tensor.Tensor // attention / FFN output (rows×Dim)
	hidden  *tensor.Tensor // FFN hidden (rows×Hidden)
	scores  []float64      // one row's attention scores (Window)
	scores2 []float64      // second score row for the paired-query kernel
	smax    []float64      // softmax scratch (Window)
}

func (sc *scratch) ensure(cfg Config, rows int) {
	tensor.Ensure(&sc.x, rows, cfg.Dim)
	tensor.Ensure(&sc.norm, rows, cfg.Dim)
	tensor.Ensure(&sc.q, rows, cfg.Dim)
	tensor.Ensure(&sc.k, rows, cfg.Dim)
	tensor.Ensure(&sc.v, rows, cfg.Dim)
	tensor.Ensure(&sc.concat, rows, cfg.Dim)
	tensor.Ensure(&sc.att, rows, cfg.Dim)
	tensor.Ensure(&sc.hidden, rows, cfg.Hidden)
	if len(sc.scores) < cfg.Window {
		sc.scores = make([]float64, cfg.Window)
		sc.scores2 = make([]float64, cfg.Window)
		sc.smax = make([]float64, cfg.Window)
	}
}

// truncTail returns the keep-last suffix of ids that fits the remaining
// window room: the canonical prompt-longer-than-window behavior shared by
// EncodePrompt (which truncates against Window−budget) and
// BatchedPredictor.Prefill/PrefillAll (which truncate against Window−Len).
func truncTail(ids []int, room int) []int {
	if room < 0 {
		room = 0
	}
	if len(ids) > room {
		ids = ids[len(ids)-room:]
	}
	return ids
}

// forward is the inference kernel: every entry point — Step, Prefill,
// PrefillAll, and the Predictor calls that delegate to them — runs the
// model through it. It embeds each segment's tokens at their own
// positions, runs every block over all rows at once, writes each
// segment's keys and values into its sequence's cache (advancing s.n is
// the caller's job), and final-norms and unembeds into *logits: one row
// per segment, for its last token, or with all, one row per token — the
// verification pass of speculative decoding, which must judge every
// drafted token. A prefill chunk needs only its last row's logits, so it
// skips the unembedding, the largest matrix in the model, for every other
// prompt position.
//
// The dense work is matrix-matrix: Q/K/V, the output projection and both
// FFN layers run as one blocked packedMat.matMat sweep over the rows of
// every segment, so each weight block is streamed from memory once per
// four-row group rather than once per token, and bias plus activation run
// as vectorized sweeps. Attention is per segment (see attend).
//
// Correctness contract: a row's arithmetic does not depend on how rows are
// grouped — same kernels or bitwise-equal blocked forms of them, same
// accumulation orders, same layer-norm and activation scalars — so a
// token's logits and KV entries are bitwise identical whether it is fed
// alone, in a decode batch, or inside a chunk, and match the pre-compile
// reference in legacy_test.go. Causality makes the phase reordering sound:
// within a layer, position p's attention reads keys/values of positions ≤
// p of its own sequence only, and those are fully determined by the
// layer's input rows, so computing a whole segment's Q/K/V before any
// attention yields the same values as strict token order. The parity and
// property tests enforce this bit for bit, config by config.
func (sc *scratch) forward(m *Model, c *compiledModel, segs []segment, all bool, logits **tensor.Tensor) *tensor.Tensor {
	cfg := m.Cfg
	rows := 0
	for _, sg := range segs {
		rows += len(sg.tokens)
	}
	sc.ensure(cfg, rows)
	r := 0
	for _, sg := range segs {
		for i, id := range sg.tokens {
			row := sc.x.Row(r)
			r++
			copy(row, m.TokEmb.W.Value.Row(id))
			switch cfg.Pos {
			case PosLearned:
				for j, v := range m.PosTable.Value.Row(sg.s.n + i) {
					row[j] += v
				}
			case PosSinusoidal:
				for j, v := range m.sinTable.Row(sg.s.n + i) {
					row[j] += v
				}
			}
		}
	}
	for li, b := range m.Blocks {
		sc.block(cfg, &c.layers[li], li, b, segs)
	}
	// sc.norm is free after the last block, so the final norm lands there.
	norm := sc.norm
	if all {
		layerNormRowsInto(norm, sc.x, m.FinalNorm)
	} else {
		norm = tensor.Ensure(&sc.norm, len(segs), cfg.Dim)
		r = 0
		for i, sg := range segs {
			r += len(sg.tokens)
			layerNormInto(norm.Row(i), sc.x.Row(r-1), m.FinalNorm)
		}
	}
	out := tensor.Ensure(logits, norm.Shape[0], cfg.Vocab)
	c.out.matMat(out, norm)
	addBias(out, c.outB)
	return out
}

// block advances one transformer block over the residual stream in sc.x,
// in place.
func (sc *scratch) block(cfg Config, cl *compiledLayer, li int, b *Block, segs []segment) {
	x := sc.x
	attnIn := x
	if !b.postNorm {
		attnIn = layerNormRowsInto(sc.norm, x, b.LN1)
	}
	cl.wq.matMat(sc.q, attnIn)
	cl.wk.matMat(sc.k, attnIn)
	cl.wv.matMat(sc.v, attnIn)
	r0 := 0
	for _, sg := range segs {
		sc.attend(cfg, sg.s, li, r0, len(sg.tokens))
		r0 += len(sg.tokens)
	}
	cl.wo.matMat(sc.att, sc.concat)
	addRows(x, sc.att)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN1)
	}
	ffnIn := x
	if !b.postNorm {
		ffnIn = layerNormRowsInto(sc.norm, x, b.LN2)
	}
	cl.ffnIn.matMat(sc.hidden, ffnIn)
	addBias(sc.hidden, cl.ffnInB)
	actInto(b.FFN.Act, sc.hidden.Data)
	cl.ffnOut.matMat(sc.att, sc.hidden)
	addBias(sc.att, cl.ffnOutB)
	addRows(x, sc.att)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN2)
	}
}

// attend runs layer li's causal attention for one segment: rows
// [r0, r0+rows) of the pass, feeding sequence s from position start = s.n.
// Per head it first writes the segment's keys and values into the cache
// (and each key into the sequence's interleaved pack, see packKeyRow);
// causal attention below reads only positions ≤ its own row's. Scores are
// then computed sixteen keys per kernel call against the pack's full
// blocks, neighboring rows sharing each block through the fused two-query
// kernel, and the positions past the last full block are finished from
// the position-major key rows. A row whose causal frontier ends inside a
// full block lets the kernel compute the whole block — the out-of-frontier
// lanes land beyond scores[:pos+1] and are never read — but full-block
// reads stop at nFull = (start+rows)/16, the segment's own frontier, so no
// lane is read that this pass did not write or an earlier one left valid.
// A one-row segment (a decode row) is the case with no pairing.
// Sparse-stride attention keeps no pack: every score comes from the key
// rows, masked by the stride.
func (sc *scratch) attend(cfg Config, s *batchSeq, li, r0, rows int) {
	hd := cfg.Dim / cfg.Heads
	start := s.n
	stride := cfg.SparseStride
	nFull := (start + rows) / 16
	if stride > 0 {
		nFull = 0
	}
	for hi := range s.keys[li] {
		kc, vc, kp := s.keys[li][hi], s.vals[li][hi], s.kpacks[li][hi]
		col := hi * hd
		for r := 0; r < rows; r++ {
			krow := sc.k.Row(r0 + r)[col : col+hd]
			copy(kc.Row(start+r), krow)
			packKeyRow(kp, krow, start+r)
			copy(vc.Row(start+r), sc.v.Row(r0 + r)[col:col+hd])
		}
		// Rows r and r+1 share blocks [0, nb); the later row (or an odd
		// last row alone) then scores the blocks its frontier adds.
		for r := 0; r < rows; r += 2 {
			nb, last := 0, r
			ql := sc.q.Row(r0 + r)[col : col+hd]
			if r+1 < rows {
				q0 := ql
				last = r + 1
				ql = sc.q.Row(r0 + last)[col : col+hd]
				nb = min((start+r+16)/16, nFull)
				for bk := 0; bk < nb; bk++ {
					mathx.DotInterleaved16X2(
						(*[16]float64)(sc.scores[bk*16:bk*16+16]),
						(*[16]float64)(sc.scores2[bk*16:bk*16+16]),
						kp[bk*16*hd:(bk+1)*16*hd], q0, ql)
				}
				sc.attendRow(sc.concat.Row(r0 + r)[col:col+hd], q0, sc.scores, kc, vc, start+r, nb, stride)
			}
			nbl := min((start+last+16)/16, nFull)
			for bk := nb; bk < nbl; bk++ {
				mathx.DotInterleaved16((*[16]float64)(sc.scores2[bk*16:bk*16+16]),
					kp[bk*16*hd:(bk+1)*16*hd], ql)
			}
			sc.attendRow(sc.concat.Row(r0 + last)[col:col+hd], ql, sc.scores2, kc, vc, start+last, nbl, stride)
		}
	}
}

// attendRow finishes one query row at position pos whose first nb score
// blocks are already in scores: the remaining scores come from the
// position-major key rows (-Inf where the sparse stride masks a key), then
// the 1/√hd scale, the softmax and the weighted value sum into out.
func (sc *scratch) attendRow(out, qh, scores []float64, kc, vc *tensor.Tensor, pos, nb, stride int) {
	for j := nb * 16; j <= pos; j++ {
		if stride > 0 && pos-j >= stride && j%stride != 0 {
			scores[j] = math.Inf(-1)
			continue
		}
		scores[j] = mathx.Dot(kc.Row(j), qh)
	}
	s := scores[:pos+1]
	scale := 1 / math.Sqrt(float64(len(qh)))
	for j := range s {
		s[j] *= scale
	}
	w := mathx.SoftmaxFastInto(s, s, sc.smax, 1)
	weightedValueSum(out, vc, w, pos, len(qh))
}

// addRows accumulates src into dst elementwise over their flat contiguous
// storage (both are pass scratch of the same shape) — per element the same
// += a row-by-row residual add performs.
func addRows(dst, src *tensor.Tensor) {
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// addBias adds the bias vector b to every row of t.
func addBias(t *tensor.Tensor, b []float64) {
	for r := 0; r < t.Shape[0]; r++ {
		row := t.Row(r)
		for j, bv := range b {
			row[j] += bv
		}
	}
}

// actInto applies the activation elementwise in place, using the vectorized
// kernels where they exist; every element equals actScalar's result bitwise.
func actInto(a nn.Activation, xs []float64) {
	switch a {
	case nn.ReLU:
		for i, v := range xs {
			if !(v > 0) {
				xs[i] = 0
			}
		}
	case nn.Tanh:
		mathx.TanhInto(xs, xs)
	case nn.GELU:
		mathx.GELUInto(xs, xs)
	default:
		panic("transformer: unknown activation")
	}
}

// layerNormRowsInto applies the inference-path layer norm row by row into
// dst (which may alias x) through the per-vector kernel layerNormInto.
func layerNormRowsInto(dst, x *tensor.Tensor, ln *nn.LayerNorm) *tensor.Tensor {
	for i := 0; i < x.Shape[0]; i++ {
		layerNormInto(dst.Row(i), x.Row(i), ln)
	}
	return dst
}
