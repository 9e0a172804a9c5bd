package transformer

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// splitCfg is a shape whose decode steps carry enough dense work to fork
// (splitWork per range) from batch 5 up, so the tests below exercise the
// row split rather than the serial path. Each test also asserts that the
// split ran, so a raised work floor cannot silently turn them serial.
func splitCfg(pos PosKind, act nn.Activation) Config {
	return Config{Vocab: 256, Dim: 128, Layers: 3, Heads: 4, Window: 12, Pos: pos, Act: act}
}

// setProcs sets GOMAXPROCS for the rest of the test and restores it after.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestBatchedStepSplitParity pins the one-fork-per-step design: with the
// batch cut into group-aligned row ranges run on the caller and the step
// helpers, every row stays bitwise identical to a solo Predictor.Append.
// Batches 5, 8, 9 and 33 give uneven range splits at GOMAXPROCS 2 and 4,
// and a mid-run Drop/Add moves a fresh sequence (position 0) into the
// last range next to sequences deep into their window.
func TestBatchedStepSplitParity(t *testing.T) {
	for _, cfg := range []Config{
		splitCfg(PosLearned, nn.GELU),
		splitCfg(PosSinusoidal, nn.Tanh),
		func() Config { c := splitCfg(PosLearned, nn.ReLU); c.PostNorm = true; return c }(),
		func() Config { c := splitCfg(PosNone, nn.GELU); c.SparseStride = 3; return c }(),
	} {
		m := MustNew(cfg, mathx.NewRNG(71))
		rng := mathx.NewRNG(72)
		steps := cfg.Window
		// One token stream per possible row plus the mid-run joiner, each
		// with its solo reference logits.
		toks := make([][]int, 34)
		want := make([][][]float64, len(toks))
		for s := range toks {
			p := m.NewPredictor()
			toks[s] = make([]int, steps)
			for j := range toks[s] {
				toks[s][j] = rng.Intn(cfg.Vocab)
				want[s] = append(want[s], append([]float64(nil), p.Append(toks[s][j])...))
			}
		}
		for _, procs := range []int{2, 4} {
			setProcs(t, procs)
			for _, batch := range []int{5, 8, 9, 33} {
				tag := fmt.Sprintf("cfg %+v procs %d batch %d", cfg, procs, batch)
				bp := m.NewBatchedPredictor()
				ids := make([]int, batch)
				stream := make([]int, batch) // row → token stream
				start := make([]int, batch)  // row → step its sequence joined
				for i := range ids {
					ids[i], stream[i] = bp.Add(), i
				}
				step := make([]int, batch)
				for j := 0; j < steps; j++ {
					if j == steps/2 {
						// Row 1 leaves; the joiner takes the last row.
						bp.Drop(ids[1])
						copy(ids[1:], ids[2:])
						copy(stream[1:], stream[2:])
						copy(start[1:], start[2:])
						ids[batch-1], stream[batch-1], start[batch-1] = bp.Add(), batch, j
					}
					for i := range step {
						step[i] = toks[stream[i]][j-start[i]]
					}
					got := bp.Step(ids, step)
					if bp.split < 2 {
						t.Fatalf("%s: step ran on %d range(s), want a split", tag, bp.split)
					}
					for i := range got {
						bitsEqual(t, tag, got[i], want[stream[i]][j-start[i]])
					}
				}
			}
		}
	}
}

// TestBatchedStepPanicOnHelper pins panic isolation across the fork: a
// fault inside one row range — a helper's or the caller's own — is raised
// on the calling goroutine once every range has stopped, as a recoverable
// value, and the predictor keeps decoding the surviving sequences bitwise
// correctly afterwards. A panic escaping on a helper goroutine would kill
// the test process instead.
func TestBatchedStepPanicOnHelper(t *testing.T) {
	setProcs(t, 2)
	cfg := splitCfg(PosLearned, nn.GELU)
	m := MustNew(cfg, mathx.NewRNG(81))
	// Batch 8 at GOMAXPROCS 2 splits into rows [0,4) on the caller and
	// [4,8) on a helper.
	for _, bad := range []int{6, 1} {
		bp := m.NewBatchedPredictor()
		ids := make([]int, 8)
		solo := make([]*Predictor, 8)
		for i := range ids {
			ids[i], solo[i] = bp.Add(), m.NewPredictor()
		}
		toks := []int{1, 2, 3, 4, 5, 6, 7, 8}
		for i, row := range bp.Step(ids, toks) {
			bitsEqual(t, "before fault", row, solo[i].Append(toks[i]))
		}
		if bp.split != 2 {
			t.Fatalf("batch 8 ran on %d range(s), want 2", bp.split)
		}
		bp.seqs[ids[bad]].kpacks = nil // corrupt one sequence's KV state
		func() {
			defer func() {
				if v := recover(); v == nil {
					t.Errorf("row %d: corrupted step did not panic on the caller", bad)
				}
			}()
			bp.Step(ids, toks)
		}()
		// The faulted step advanced nobody; the survivors decode on.
		bp.Drop(ids[bad])
		live := append(append([]int(nil), ids[:bad]...), ids[bad+1:]...)
		liveSolo := append(append([]*Predictor(nil), solo[:bad]...), solo[bad+1:]...)
		for round := 0; round < 3; round++ {
			step := toks[:len(live)]
			for i, row := range bp.Step(live, step) {
				bitsEqual(t, fmt.Sprintf("row %d fault, survivor %d", bad, i), row, liveSolo[i].Append(step[i]))
			}
		}
	}
}

// TestBatchedStepConcurrentPredictors drives several predictors' forked
// steps at once from separate goroutines. They share the process-wide
// step helpers, so each range's completion must reach its own
// predictor's join and every row must still match a solo Append bitwise.
func TestBatchedStepConcurrentPredictors(t *testing.T) {
	setProcs(t, 3)
	cfg := splitCfg(PosSinusoidal, nn.GELU)
	m := MustNew(cfg, mathx.NewRNG(91))
	const preds, batch = 3, 8
	done := make(chan struct{})
	for g := 0; g < preds; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			rng := mathx.NewRNG(uint64(100 + g))
			bp := m.NewBatchedPredictor()
			ids := make([]int, batch)
			solo := make([]*Predictor, batch)
			for i := range ids {
				ids[i], solo[i] = bp.Add(), m.NewPredictor()
			}
			toks := make([]int, batch)
			for j := 0; j < cfg.Window; j++ {
				for i := range toks {
					toks[i] = rng.Intn(cfg.Vocab)
				}
				for i, row := range bp.Step(ids, toks) {
					want := solo[i].Append(toks[i])
					for o := range want {
						if row[o] != want[o] {
							t.Errorf("predictor %d step %d row %d logit %d: %v != solo %v", g, j, i, o, row[o], want[o])
							return
						}
					}
				}
				if bp.split < 2 {
					t.Errorf("predictor %d step %d ran on %d range(s), want a split", g, j, bp.split)
					return
				}
			}
		}()
	}
	for g := 0; g < preds; g++ {
		<-done
	}
}
