package transformer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// BatchedPredictor performs autoregressive inference for many sequences at
// once over the same model, batching the dense work (Q/K/V/output
// projections, FFN, unembedding) of one decoding step across sequences into
// matrix multiplies while keeping an independent per-sequence KV cache.
// Sequences join (Add) and leave (Drop) the batch at any step, which is what
// the serving front end's continuous batching relies on.
//
// A step, a prefill chunk and a verification pass all run the one forward
// kernel (scratch.forward): a step is one one-token segment per listed
// sequence, so every dense projection runs as one packedMat.matMat sweep
// with the step's residual rows as the right-hand matrix and each
// sixteen-row weight block is streamed from memory once per four-row group
// (the fused mathx.DotInterleaved16X4 kernel). Per-row arithmetic does not
// depend on the grouping, so the logits for a sequence are bitwise
// identical to running it alone, token by token, through a Predictor.
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
// Steps avoid per-call churn: each sequence's KV cache is preallocated to
// the window at Add, and all step intermediates (projections, residuals,
// logits) live in per-range scratch arenas reused across Step calls; the
// fork itself sends preallocated range descriptors over a channel, so a
// steady-state Step allocates nothing at any width.
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
	rows    []segment // the step's one-token segments
	seen    map[int]bool
	overCap int
	out     [][]float64   // per-sequence logit views handed to the caller
	ranges  []*stepRange  // per-range scratch; ranges[0] runs on the caller
	done    chan struct{} // helper completions, one per forked range
	split   int           // ranges the last Step ran on

	// Prefill logits (1×Vocab), created on first Prefill and reused (the
	// chunk scratch itself is pooled on the model).
	pfLogits *tensor.Tensor

	// Verification scratch for PrefillAll, created on first use and reused:
	// per-position logits and the row views handed to the caller.
	pfAll    *tensor.Tensor
	pfAllOut [][]float64
}

// stepRange is one contiguous row range of a decode step together with the
// scratch its forward pass runs on. Step points segs and out at the range's
// slice of the batch before running it.
type stepRange struct {
	bp   *BatchedPredictor
	segs []segment
	out  [][]float64
	scratch
	logits *tensor.Tensor // unembedding output (rows×Vocab)

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

// NewBatchedPredictor compiles m's weights into the packed inference layout
// and returns an empty batch over them. The compile step snapshots the
// matrix weights at call time (see compile).
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

// keyPackLen is the per-head interleaved key-pack size: the window's full
// sixteen-row blocks. Sparse-stride attention always scores through the
// masked per-row path and never reads a pack, so those configs keep the
// packs empty (packKeyRow on an empty pack is a no-op) rather than
// doubling key-cache memory for nothing.
func (c Config) keyPackLen(hd int) int {
	if c.SparseStride > 0 {
		return 0
	}
	return (c.Window / 16) * 16 * hd
}

// Drop releases a sequence and its KV cache.
func (bp *BatchedPredictor) Drop(id int) { delete(bp.seqs, id) }

// Size returns the number of registered sequences.
func (bp *BatchedPredictor) Size() int { return len(bp.seqs) }

// Len returns the number of positions processed for sequence id.
func (bp *BatchedPredictor) Len(id int) int { return bp.seq(id).n }

// seq returns sequence id's state, panicking when id is not registered.
func (bp *BatchedPredictor) seq(id int) *batchSeq {
	s := bp.seqs[id]
	if s == nil {
		panic(fmt.Sprintf("transformer: unknown batch sequence %d", id))
	}
	return s
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
		bp.rows = make([]segment, batch)
		bp.out = make([][]float64, batch)
	}
	segs := bp.rows[:batch]
	clear(bp.seen)
	for i, id := range ids {
		s := bp.seq(id)
		if bp.seen[id] {
			panic(fmt.Sprintf("transformer: sequence %d listed twice in one step", id))
		}
		bp.seen[id] = true
		if s.n >= m.Cfg.Window {
			panic("transformer: predictor window exhausted")
		}
		segs[i] = segment{s, tokens[i : i+1]}
	}
	out := bp.out[:batch]
	ranges := bp.cut(segs, out)
	if len(ranges) == 1 {
		ranges[0].run()
	} else {
		bp.fork(ranges)
	}
	for _, sg := range segs {
		sg.s.n++
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
func (bp *BatchedPredictor) cut(segs []segment, out [][]float64) []*stepRange {
	cfg := bp.m.Cfg
	batch := len(segs)
	groups := (batch + 3) / 4
	rowWork := cfg.Layers*cfg.Dim*(4*cfg.Dim+2*cfg.Hidden) + cfg.Vocab*cfg.Dim
	n := max(1, min(runtime.GOMAXPROCS(0), groups, batch*rowWork/splitWork))
	for len(bp.ranges) < n {
		bp.ranges = append(bp.ranges, &stepRange{bp: bp})
	}
	if cap(bp.done) < n-1 {
		bp.done = make(chan struct{}, n-1)
	}
	for i, r := range bp.ranges[:n] {
		lo, hi := i*groups/n*4, min((i+1)*groups/n*4, batch)
		r.segs, r.out = segs[lo:hi], out[lo:hi]
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

// run is the range's forward pass: each row's token through every block
// at its sequence's own position, leaving each row's logits in r.out.
func (r *stepRange) run() {
	logits := r.forward(r.bp.m, r.bp.c, r.segs, false, &r.logits)
	for i := range r.out {
		r.out[i] = logits.Row(i)
	}
}

// Prefill feeds a whole chunk of tokens to one batch sequence and returns
// the logits for the position after the last one — bitwise identical to
// stepping the sequence alone through Step once per token, at a fraction
// of the cost (the chunk is one segment of the forward pass, so its dense
// work streams each weight block once per four chunk rows, and only the
// last position is unembedded). Sequences not named are untouched, which
// is what lets the serving loop interleave bounded prefill chunks with
// decode steps. If ids exceeds the sequence's remaining window room, only
// the last Window−Len(id) tokens are ingested (keep-last truncation,
// matching the prompt-window policy of EncodePrompt); it returns nil when
// no tokens remain.
//
// The returned slice is reusable scratch, valid until the next Prefill
// call. Steady-state Prefill calls allocate nothing once the pooled chunk
// scratch has grown to the caller's chunk size.
func (bp *BatchedPredictor) Prefill(id int, ids []int) []float64 {
	logits := bp.chunk(id, ids, false, &bp.pfLogits)
	if logits == nil {
		return nil
	}
	return logits.Row(0)
}

// chunk runs ids through the forward pass as one segment of sequence id on
// pooled scratch, into *logits (see scratch.forward for all), and advances
// the sequence. It returns nil when no tokens fit the window.
func (bp *BatchedPredictor) chunk(id int, ids []int, all bool, logits **tensor.Tensor) *tensor.Tensor {
	s := bp.seq(id)
	ids = truncTail(ids, bp.m.Cfg.Window-s.n)
	if len(ids) == 0 {
		return nil
	}
	sc, _ := bp.m.pfPool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	defer bp.m.pfPool.Put(sc)
	segs := [1]segment{{s, ids}}
	out := sc.forward(bp.m, bp.c, segs[:], all, logits)
	s.n += len(ids)
	return out
}
