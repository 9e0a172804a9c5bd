package transformer

import (
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// TestAppendZeroAllocsSteadyState pins the decode fast path's allocation
// behavior: once a Predictor exists, Append must not touch the heap — the
// compiled weights, the preallocated KV cache, and the scratch arena cover
// every intermediate. A regression here silently reintroduces GC pressure
// on the hottest loop in the repository, so it fails rather than warns.
func TestAppendZeroAllocsSteadyState(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 512, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 33, Dim: 32, Layers: 1, Heads: 4, Window: 512, Pos: PosSinusoidal, Act: nn.ReLU, PostNorm: true},
		{Vocab: 33, Dim: 32, Layers: 1, Heads: 2, Window: 512, Pos: PosNone, Act: nn.GELU, SparseStride: 4},
	} {
		m := MustNew(cfg, mathx.NewRNG(3))
		p := m.NewPredictor()
		rng := mathx.NewRNG(4)
		// A few warm-up tokens, then measure. The window (512) is far
		// larger than warm-up + measured appends, so no re-arm happens
		// inside the measurement.
		for i := 0; i < 4; i++ {
			p.Append(rng.Intn(cfg.Vocab))
		}
		allocs := testing.AllocsPerRun(300, func() {
			p.Append(rng.Intn(cfg.Vocab))
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: Append allocates %v per token at steady state, want 0", cfg, allocs)
		}
	}
}

// TestCompiledCacheSharedAndInvalidated checks the compiled-view lifecycle:
// predictors share one packed snapshot, and mutating the weights through
// the sanctioned paths (InvalidateCompiled, as train.Run and
// interp.AblateHead do) makes the next predictor recompile and decode the
// new weights.
func TestCompiledCacheSharedAndInvalidated(t *testing.T) {
	cfg := Config{Vocab: 9, Dim: 16, Layers: 1, Heads: 2, Window: 8, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(11))
	p1 := m.NewPredictor()
	p2 := m.NewPredictor()
	if p1.bp.c != p2.bp.c {
		t.Fatal("predictors built from unchanged weights should share the compiled view")
	}
	before := append([]float64(nil), p1.Append(1)...)
	// Mutate a weight and invalidate, as every sanctioned mutator does.
	m.Output.W.Value.Data[0] += 1
	m.InvalidateCompiled()
	p3 := m.NewPredictor()
	if p3.bp.c == p1.bp.c {
		t.Fatal("InvalidateCompiled did not drop the cached view")
	}
	after := p3.Append(1)
	if before[0] == after[0] {
		t.Error("predictor built after invalidation still decodes the old weights")
	}
	// And the stale predictor keeps its snapshot (documented semantics).
	if got := m.NewPredictor(); got.bp.c != p3.bp.c {
		t.Error("rebuilt view not shared by subsequent predictors")
	}
}

// TestBatchedStepAllocsBounded pins the serial batched decoding step at
// every batch size the E21 scaling benchmark sweeps: after the scratch
// arena has grown to the batch size, Step allocates nothing (map clear is
// free, tensor views are reused) regardless of batch size or position.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so this is the unforked path;
// TestBatchedStepZeroAllocsSplit pins the forked one. Each width gets a
// fresh predictor so the shrink policy (constant batch ⇒ capacity == batch
// ⇒ no trim) never fires mid-measure.
func TestBatchedStepAllocsBounded(t *testing.T) {
	cfg := Config{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 600, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(5))
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		bp := m.NewBatchedPredictor()
		ids := make([]int, batch)
		toks := make([]int, batch)
		for i := range ids {
			ids[i] = bp.Add()
		}
		rng := mathx.NewRNG(6)
		step := func() {
			for i := range toks {
				toks[i] = rng.Intn(cfg.Vocab)
			}
			bp.Step(ids, toks)
		}
		for i := 0; i < 4; i++ {
			step() // warm the scratch
		}
		allocs := testing.AllocsPerRun(300, step)
		if allocs != 0 {
			t.Errorf("batch %d: BatchedPredictor.Step allocates %v per step at steady state, want 0", batch, allocs)
		}
	}
}

// TestBatchedScratchShrinksAfterBurst pins the scratch-retention policy: a
// burst of wide steps grows the arena to the burst size, and once the live
// batch stays well below that capacity for scratchShrinkAfter consecutive
// steps, the arena is released and regrown at the live size — a server that
// once saw a 32-wide burst must not pin 32-row scratch while decoding one
// stream. Equal or near-capacity batches must never trigger a trim (the
// steady-state zero-alloc guarantee depends on it).
func TestBatchedScratchShrinksAfterBurst(t *testing.T) {
	cfg := Config{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 2*scratchShrinkAfter + 40, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(7))
	bp := m.NewBatchedPredictor()
	const burst = 32
	ids := make([]int, burst)
	toks := make([]int, burst)
	for i := range ids {
		ids[i] = bp.Add()
	}
	for s := 0; s < 3; s++ {
		bp.Step(ids, toks[:burst])
	}
	if cap(bp.rows) < burst {
		t.Fatalf("scratch capacity %d after a %d-wide burst", cap(bp.rows), burst)
	}
	grown := cap(bp.ranges[0].x.Data)
	// The burst ends; one sequence keeps decoding.
	for s := 0; s < scratchShrinkAfter+1; s++ {
		bp.Step(ids[:1], toks[:1])
	}
	if cap(bp.rows) != 1 {
		t.Errorf("scratch holds %d rows after %d single-row steps, want 1", cap(bp.rows), scratchShrinkAfter+1)
	}
	if cap(bp.ranges[0].x.Data) >= grown {
		t.Errorf("residual scratch kept its burst capacity (%d floats)", cap(bp.ranges[0].x.Data))
	}
	// A batch at (or near) the live capacity never trims: capacities stay
	// put across far more than scratchShrinkAfter steps.
	bp2 := m.NewBatchedPredictor()
	ids2 := make([]int, scratchMinRows)
	for i := range ids2 {
		ids2[i] = bp2.Add()
	}
	for s := 0; s < scratchShrinkAfter+5; s++ {
		bp2.Step(ids2, toks[:len(ids2)])
	}
	if cap(bp2.rows) != scratchMinRows {
		t.Errorf("steady batch of %d saw its scratch resized to %d rows", scratchMinRows, cap(bp2.rows))
	}
}

// TestBatchedStepZeroAllocsSplit pins the forked step's allocation
// behavior: at GOMAXPROCS 2 on a shape that splits, a steady-state Step
// allocates nothing at any width from 1 to 32 — the row ranges, their
// scratch, the helpers and the join channel all persist across steps, and
// the fork sends preallocated range descriptors rather than closures.
// testing.AllocsPerRun would pin GOMAXPROCS to 1 and never fork, so the
// count comes from the runtime's malloc counter around the steps.
func TestBatchedStepZeroAllocsSplit(t *testing.T) {
	setProcs(t, 2)
	cfg := splitCfg(PosLearned, nn.GELU)
	cfg.Window = 64
	m := MustNew(cfg, mathx.NewRNG(9))
	const runs = 20
	for batch := 1; batch <= 32; batch++ {
		bp := m.NewBatchedPredictor()
		ids := make([]int, batch)
		toks := make([]int, batch)
		for i := range ids {
			ids[i] = bp.Add()
		}
		rng := mathx.NewRNG(10)
		step := func() {
			for i := range toks {
				toks[i] = rng.Intn(cfg.Vocab)
			}
			bp.Step(ids, toks)
		}
		for i := 0; i < 3; i++ {
			step() // warm the scratch and start the helpers
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
			t.Errorf("batch %d: Step allocates %d per step at GOMAXPROCS 2, want 0", batch, allocs)
		}
		if batch >= 5 && bp.split < 2 {
			t.Errorf("batch %d: step ran on %d range(s), want a split", batch, bp.split)
		}
	}
}
