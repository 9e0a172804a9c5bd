package transformer

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BatchedPredictor performs autoregressive inference for many sequences at
// once over the same model, batching the dense work (Q/K/V/output
// projections, FFN, unembedding) of one decoding step across sequences into
// matrix multiplies while keeping an independent per-sequence KV cache.
// Sequences join (Add) and leave (Drop) the batch at any step, which is what
// the serving front end's continuous batching relies on.
//
// The step is cross-sequence GEMM work: every dense projection runs as one
// packedMat.matMat sweep with a row range's residual rows as the right-hand
// matrix, so each sixteen-row weight block is streamed from memory once per
// four-row group (the fused mathx.DotInterleaved16X4 kernel). Per-sequence
// attention reads the same incrementally maintained interleaved key packs
// the chunked prefill uses, sixteen keys per kernel call. Per-row
// arithmetic is Predictor.Append's operation for operation — same kernels,
// same accumulation orders — so the logits for a sequence are bitwise
// identical to running it alone through a Predictor.
//
// Rows of one step are independent (each reads only its own sequence's KV
// cache), so a step forks once: the batch is cut into contiguous ranges of
// whole four-row groups, at most one per GOMAXPROCS and no more than the
// step's dense work pays for (see splitWork), and each range runs the
// entire forward — embedding, every block, final norm, unembedding —
// on its own scratch set. The caller runs the first range and long-lived
// helper goroutines run the rest; the step joins once at the end. Because
// ranges are group-aligned, the split breaks no four-row kernel group, so
// each weight block is still streamed once per group as in a serial step;
// and because each row's arithmetic is unchanged, the split is invisible
// in the logits.
//
// Like Predictor, the batched path avoids per-step churn: each sequence's
// KV cache is preallocated to the window at Add, and all step intermediates
// (projections, residuals, logits) live in per-range scratch arenas reused
// across Step calls; the fork itself sends preallocated range descriptors
// over a channel, so a steady-state Step allocates nothing at any width.
// The arenas grow to the largest live batch and are released again when
// the batch stays well below that high-water mark (see trimScratch), so a
// burst does not pin its peak footprint forever.
//
// A BatchedPredictor reads model weights and is not safe for concurrent use;
// the serving loop owns one and is the sole caller.
type BatchedPredictor struct {
	m    *Model
	c    *compiledModel
	seqs map[int]*batchSeq
	next int

	// Step state, grown to the largest batch seen and reused; overCap
	// counts consecutive steps far below capacity (the shrink hysteresis).
	rows    []*batchSeq
	seen    map[int]bool
	overCap int
	out     [][]float64   // per-sequence logit views handed to the caller
	ranges  []*stepRange  // per-range scratch; ranges[0] runs on the caller
	done    chan struct{} // helper completions, one per forked range
	split   int           // ranges the last Step ran on

	// Prefill logits buffer, created on first Prefill and reused (the
	// chunk scratch itself is pooled on the model).
	pfLogits []float64

	// Verification scratch for PrefillAll, created on first use and reused:
	// per-position logits and the row views handed to the caller.
	pfAll    *tensor.Tensor
	pfAllOut [][]float64
}

// stepRange is one contiguous row range of a decode step together with the
// scratch its forward pass runs on. Step points seqs, tokens and out at the
// range's slice of the batch before running it.
type stepRange struct {
	bp     *BatchedPredictor
	seqs   []*batchSeq
	tokens []int
	out    [][]float64

	x       *tensor.Tensor // embeddings / residual stream (rows×Dim)
	norm    *tensor.Tensor // layer-norm output (rows×Dim)
	q       *tensor.Tensor // all heads' queries, head-major (rows×Dim)
	k       *tensor.Tensor // all heads' keys (rows×Dim)
	v       *tensor.Tensor // all heads' values (rows×Dim)
	concat  *tensor.Tensor // concatenated head outputs (rows×Dim)
	attnOut *tensor.Tensor // attention / FFN output (rows×Dim)
	hidden  *tensor.Tensor // FFN hidden (rows×Hidden)
	logits  *tensor.Tensor // unembedding output (rows×Vocab)
	scores  []float64      // per-head attention scores (Window)
	smax    []float64      // softmax scratch (Window)

	fault any // a panic recovered on a helper, re-raised by Step
}

// batchSeq is one sequence's decoding state: positions processed so far and
// the per-layer, per-head KV cache, preallocated to the model window (rows
// [0, n) are valid), plus the interleaved key packs maintained alongside
// the key rows (see packKeyRow).
type batchSeq struct {
	n      int
	keys   [][]*tensor.Tensor
	vals   [][]*tensor.Tensor
	kpacks [][][]float64
}

// NewBatchedPredictor compiles m's weights (the same packed layouts
// Predictor uses) and returns an empty batch over them. Like NewPredictor,
// the compile step snapshots the matrix weights at call time.
func (m *Model) NewBatchedPredictor() *BatchedPredictor {
	return &BatchedPredictor{
		m:    m,
		c:    m.compile(),
		seqs: map[int]*batchSeq{},
		seen: map[int]bool{},
	}
}

// Add registers a new empty sequence and returns its handle.
func (bp *BatchedPredictor) Add() int {
	m := bp.m
	hd := m.Cfg.Dim / m.Cfg.Heads
	s := &batchSeq{
		keys:   make([][]*tensor.Tensor, len(m.Blocks)),
		vals:   make([][]*tensor.Tensor, len(m.Blocks)),
		kpacks: make([][][]float64, len(m.Blocks)),
	}
	for i, b := range m.Blocks {
		s.keys[i] = make([]*tensor.Tensor, b.Attn.NumHeads())
		s.vals[i] = make([]*tensor.Tensor, b.Attn.NumHeads())
		s.kpacks[i] = make([][]float64, b.Attn.NumHeads())
		for h := range s.keys[i] {
			s.keys[i][h] = tensor.New(m.Cfg.Window, hd)
			s.vals[i][h] = tensor.New(m.Cfg.Window, hd)
			s.kpacks[i][h] = make([]float64, m.Cfg.keyPackLen(hd))
		}
	}
	id := bp.next
	bp.next++
	bp.seqs[id] = s
	return id
}

// Drop releases a sequence and its KV cache.
func (bp *BatchedPredictor) Drop(id int) { delete(bp.seqs, id) }

// Size returns the number of registered sequences.
func (bp *BatchedPredictor) Size() int { return len(bp.seqs) }

// Len returns the number of positions processed for sequence id.
func (bp *BatchedPredictor) Len(id int) int {
	s := bp.seqs[id]
	if s == nil {
		panic(fmt.Sprintf("transformer: unknown batch sequence %d", id))
	}
	return s.n
}

// Scratch-retention policy: the step arena tracks the largest batch seen,
// which after a traffic burst can dwarf the steady batch. When the live
// batch has stayed at or below capacity/scratchShrinkFactor for
// scratchShrinkAfter consecutive steps, the arena is released and regrown
// at the live size; tiny arenas (≤ scratchMinRows rows) are never worth
// reclaiming. The hysteresis keeps an oscillating load from thrashing
// between shrink and regrowth.
const (
	scratchShrinkFactor = 4
	scratchShrinkAfter  = 64
	scratchMinRows      = 8
)

// trimScratch applies the retention policy above before a step of the given
// batch size, releasing every range and its arena; the following cut
// rebuilds them at the live size.
func (bp *BatchedPredictor) trimScratch(batch int) {
	if cap(bp.rows) <= scratchMinRows || batch*scratchShrinkFactor > cap(bp.rows) {
		bp.overCap = 0
		return
	}
	if bp.overCap++; bp.overCap < scratchShrinkAfter {
		return
	}
	bp.overCap = 0
	bp.rows, bp.out, bp.ranges = nil, nil, nil
}

// Step feeds one token per listed sequence and returns next-position logits
// aligned with ids. Sequences not listed stay untouched, which lets callers
// prefill a newly admitted request while others are mid-decode. It panics on
// an unknown or duplicated id, and when a sequence's window is exhausted.
// A panic inside any row range's forward pass is raised on the caller's
// goroutine once every range has stopped.
//
// The returned rows are views into the predictor's step scratch: they are
// valid until the next Step call (the serving loop and every decoding
// driver consume them immediately). Clone a row to retain it.
func (bp *BatchedPredictor) Step(ids []int, tokens []int) [][]float64 {
	m := bp.m
	if len(ids) != len(tokens) {
		panic("transformer: BatchedPredictor.Step ids/tokens length mismatch")
	}
	if len(ids) == 0 {
		return nil
	}
	batch := len(ids)
	bp.trimScratch(batch)
	if cap(bp.rows) < batch {
		bp.rows = make([]*batchSeq, batch)
		bp.out = make([][]float64, batch)
	}
	seqs := bp.rows[:batch]
	clear(bp.seen)
	for i, id := range ids {
		s := bp.seqs[id]
		if s == nil {
			panic(fmt.Sprintf("transformer: unknown batch sequence %d", id))
		}
		if bp.seen[id] {
			panic(fmt.Sprintf("transformer: sequence %d listed twice in one step", id))
		}
		bp.seen[id] = true
		if s.n >= m.Cfg.Window {
			panic("transformer: predictor window exhausted")
		}
		seqs[i] = s
	}
	out := bp.out[:batch]
	ranges := bp.cut(seqs, tokens, out)
	if len(ranges) == 1 {
		ranges[0].run()
	} else {
		bp.fork(ranges)
	}
	for _, s := range seqs {
		s.n++
	}
	return out
}

// splitWork is the least dense work, in multiply-adds, that each range of a
// forked step must carry. Below it, waking a helper and joining it cost
// about what the rows it takes off the caller save: on a 2-vCPU AVX-512
// host a fork measured neutral at ~0.8M multiply-adds per range (E21 shape,
// batch 16) and paid from ~1.7M up (E21 batch 32; the serving benchmark's
// Dim-128 batch 8 carries ~3.2M).
const splitWork = 1 << 20

// cut splits the step's rows into contiguous ranges of whole four-row
// groups — the DotInterleaved16X4 grouping matMat uses — one per
// GOMAXPROCS at most and no more than the step's dense work can keep busy
// (splitWork each), and points each range at its slice of the batch.
func (bp *BatchedPredictor) cut(seqs []*batchSeq, tokens []int, out [][]float64) []*stepRange {
	cfg := bp.m.Cfg
	batch := len(seqs)
	groups := (batch + 3) / 4
	rowWork := cfg.Layers*cfg.Dim*(4*cfg.Dim+2*cfg.Hidden) + cfg.Vocab*cfg.Dim
	n := max(1, min(runtime.GOMAXPROCS(0), groups, batch*rowWork/splitWork))
	for len(bp.ranges) < n {
		bp.ranges = append(bp.ranges, &stepRange{
			bp:     bp,
			scores: make([]float64, cfg.Window),
			smax:   make([]float64, cfg.Window),
		})
	}
	if cap(bp.done) < n-1 {
		bp.done = make(chan struct{}, n-1)
	}
	for i, r := range bp.ranges[:n] {
		lo, hi := i*groups/n*4, min((i+1)*groups/n*4, batch)
		r.seqs, r.tokens, r.out = seqs[lo:hi], tokens[lo:hi], out[lo:hi]
	}
	bp.split = n
	return bp.ranges[:n]
}

// fork runs ranges[0] on the calling goroutine and the rest on the step
// helpers, and returns once all of them have finished. A panic in any
// range — the caller's included — is recovered where it happens and
// re-raised here only after the join, so no helper is still writing step
// scratch or KV rows when the caller unwinds.
func (bp *BatchedPredictor) fork(ranges []*stepRange) {
	startStepHelpers(len(ranges) - 1)
	for _, r := range ranges[1:] {
		stepHelpers.work <- r
	}
	ranges[0].runGuarded()
	for range ranges[1:] {
		<-bp.done
	}
	var fault any
	for _, r := range ranges {
		if fault == nil {
			fault = r.fault
		}
		r.fault = nil
	}
	if fault != nil {
		panic(fault)
	}
}

// stepHelpers is the pool of long-lived goroutines that run the forked
// ranges of every BatchedPredictor's steps. It is process-wide rather than
// per predictor because a predictor has no Close to stop its helpers with:
// servers and benchmarks build predictors freely and leave them to the
// garbage collector. The pool grows on demand to the widest fork seen
// (GOMAXPROCS−1) and never shrinks; idle helpers park on the work channel.
var stepHelpers struct {
	mu   sync.Mutex
	n    int
	work chan *stepRange
}

// startStepHelpers ensures at least n helpers are running.
func startStepHelpers(n int) {
	stepHelpers.mu.Lock()
	defer stepHelpers.mu.Unlock()
	if stepHelpers.work == nil {
		stepHelpers.work = make(chan *stepRange)
	}
	for ; stepHelpers.n < n; stepHelpers.n++ {
		go stepHelper(stepHelpers.work)
	}
}

// stepHelper runs forked ranges until the process exits, reporting each
// completion to the range's predictor.
func stepHelper(work <-chan *stepRange) {
	for r := range work {
		r.runGuarded()
		r.bp.done <- struct{}{}
	}
}

// runGuarded runs the range, recording a panic in r.fault instead of
// unwinding.
func (r *stepRange) runGuarded() {
	defer func() { r.fault = recover() }()
	r.run()
}

// run is the whole forward pass for the range's rows: embedding at each
// sequence's own position, every block, the final layer norm, and the
// unembedding, leaving each row's logits in r.out.
func (r *stepRange) run() {
	m := r.bp.m
	c := r.bp.c
	rows := len(r.seqs)
	x := tensor.Ensure(&r.x, rows, m.Cfg.Dim)
	for i, s := range r.seqs {
		row := x.Row(i)
		copy(row, m.TokEmb.W.Value.Row(r.tokens[i]))
		switch m.Cfg.Pos {
		case PosLearned:
			for j, v := range m.PosTable.Value.Row(s.n) {
				row[j] += v
			}
		case PosSinusoidal:
			for j, v := range m.sinTable.Row(s.n) {
				row[j] += v
			}
		}
	}
	for li, b := range m.Blocks {
		r.blockStep(li, b, x)
	}
	layerNormRowsInto(x, x, m.FinalNorm)
	// Unembedding as one blocked sweep: the vocab projection — the largest
	// matrix in the model — streams once per four-row group.
	logits := tensor.Ensure(&r.logits, rows, m.Cfg.Vocab)
	c.out.matMat(logits, x)
	for i := range rows {
		row := logits.Row(i)
		for o, bv := range c.outB {
			row[o] += bv
		}
		r.out[i] = row
	}
}

// blockStep advances one block over the range's residual stream in x, in
// place. It is the cross-sequence form of Predictor.blockStep: the five
// dense projections run as blocked matrix-matrix sweeps over the range's
// rows, and per-sequence attention scores sixteen keys per kernel call
// against each sequence's interleaved key pack. Row for row the arithmetic
// matches Predictor.blockStep's bitwise.
func (r *stepRange) blockStep(li int, b *Block, x *tensor.Tensor) {
	m := r.bp.m
	cl := &r.bp.c.layers[li]
	hd := m.Cfg.Dim / m.Cfg.Heads
	batch := x.Shape[0]
	attnIn := x
	if !b.postNorm {
		attnIn = layerNormRowsInto(tensor.Ensure(&r.norm, batch, m.Cfg.Dim), x, b.LN1)
	}
	// All heads' Q/K/V projections: three blocked sweeps shared by every
	// row of the range.
	q := tensor.Ensure(&r.q, batch, m.Cfg.Dim)
	k := tensor.Ensure(&r.k, batch, m.Cfg.Dim)
	v := tensor.Ensure(&r.v, batch, m.Cfg.Dim)
	cl.wq.matMat(q, attnIn)
	cl.wk.matMat(k, attnIn)
	cl.wv.matMat(v, attnIn)
	concat := tensor.Ensure(&r.concat, batch, m.Cfg.Dim)
	scale := 1 / math.Sqrt(float64(hd))
	stride := m.Cfg.SparseStride
	for hi := range b.Attn.heads {
		for i, s := range r.seqs {
			kc, vc := s.keys[li][hi], s.vals[li][hi]
			pos := s.n
			krow := k.Row(i)[hi*hd : (hi+1)*hd]
			copy(kc.Row(pos), krow)
			packKeyRow(s.kpacks[li][hi], krow, pos)
			copy(vc.Row(pos), v.Row(i)[hi*hd:(hi+1)*hd])
			qh := q.Row(i)[hi*hd : (hi+1)*hd]
			scores := r.scores[:pos+1]
			if stride > 0 {
				for j := 0; j <= pos; j++ {
					if pos-j >= stride && j%stride != 0 {
						scores[j] = math.Inf(-1)
						continue
					}
					scores[j] = mathx.Dot(qh, kc.Row(j)) * scale
				}
			} else {
				packedAttnScores(r.scores, qh, s.kpacks[li][hi], kc, pos, scale)
			}
			w := mathx.SoftmaxFastInto(scores, scores, r.smax, 1)
			out := concat.Row(i)[hi*hd : (hi+1)*hd]
			weightedValueSum(out, vc, w, pos, hd)
		}
	}
	attnOut := tensor.Ensure(&r.attnOut, batch, m.Cfg.Dim)
	cl.wo.matMat(attnOut, concat)
	addRows(x, attnOut, batch)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN1)
	}
	ffnIn := x
	if !b.postNorm {
		ffnIn = layerNormRowsInto(tensor.Ensure(&r.norm, batch, m.Cfg.Dim), x, b.LN2)
	}
	h := tensor.Ensure(&r.hidden, batch, m.Cfg.Hidden)
	cl.ffnIn.matMat(h, ffnIn)
	for i := 0; i < batch; i++ {
		row := h.Row(i)
		for j, bv := range cl.ffnInB {
			row[j] += bv
		}
	}
	// One vectorized activation sweep over the range's hidden rows
	// (contiguous storage), elementwise bitwise-identical to actScalar.
	actInto(b.FFN.Act, h.Data[:batch*m.Cfg.Hidden])
	ffnOut := tensor.Ensure(&r.attnOut, batch, m.Cfg.Dim)
	cl.ffnOut.matMat(ffnOut, h)
	for i := 0; i < batch; i++ {
		row := ffnOut.Row(i)
		for j, bv := range cl.ffnOutB {
			row[j] += bv
		}
	}
	addRows(x, ffnOut, batch)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN2)
	}
}

// layerNormRowsInto applies the inference-path layer norm row-by-row into
// dst (which may alias x), reusing the same per-vector kernel as Predictor
// so batched and unbatched decoding agree bitwise.
func layerNormRowsInto(dst, x *tensor.Tensor, ln *nn.LayerNorm) *tensor.Tensor {
	for i := 0; i < x.Shape[0]; i++ {
		layerNormInto(dst.Row(i), x.Row(i), ln)
	}
	return dst
}
