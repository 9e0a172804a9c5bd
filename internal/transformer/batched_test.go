package transformer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// TestBatchedPredictorMatchesPredictor drives several sequences of different
// lengths through one BatchedPredictor and each alone through a Predictor;
// logits must agree bitwise at every step (the batched path reuses the same
// kernels in the same order).
func TestBatchedPredictorMatchesPredictor(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 19, Dim: 16, Layers: 2, Heads: 2, Window: 12, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 19, Dim: 16, Layers: 1, Heads: 4, Window: 12, Pos: PosSinusoidal, Act: nn.ReLU, PostNorm: true},
		{Vocab: 19, Dim: 16, Layers: 2, Heads: 2, Window: 12, Pos: PosNone, Act: nn.GELU, SparseStride: 3},
	} {
		m := MustNew(cfg, mathx.NewRNG(31))
		rng := mathx.NewRNG(32)
		// Three sequences with different lengths.
		seqs := [][]int{
			make([]int, 12),
			make([]int, 7),
			make([]int, 10),
		}
		for _, s := range seqs {
			for i := range s {
				s[i] = rng.Intn(cfg.Vocab)
			}
		}
		// Reference: each sequence alone.
		want := make([][][]float64, len(seqs))
		for si, s := range seqs {
			p := m.NewPredictor()
			for _, id := range s {
				logits := p.Append(id)
				cp := append([]float64(nil), logits...)
				want[si] = append(want[si], cp)
			}
		}
		// Batched: all sequences together; shorter ones drop out when done.
		bp := m.NewBatchedPredictor()
		handles := make([]int, len(seqs))
		for i := range seqs {
			handles[i] = bp.Add()
		}
		for step := 0; ; step++ {
			var ids, toks []int
			var who []int
			for si, s := range seqs {
				if step < len(s) {
					ids = append(ids, handles[si])
					toks = append(toks, s[step])
					who = append(who, si)
				}
			}
			if len(ids) == 0 {
				break
			}
			got := bp.Step(ids, toks)
			for i, si := range who {
				w := want[si][step]
				for o := range w {
					if got[i][o] != w[o] {
						t.Fatalf("cfg %+v: seq %d step %d logit %d: batched %v != solo %v",
							cfg, si, step, o, got[i][o], w[o])
					}
				}
			}
		}
		for si := range seqs {
			if got, want := bp.Len(handles[si]), len(seqs[si]); got != want {
				t.Fatalf("seq %d: Len = %d, want %d", si, got, want)
			}
		}
	}
}

// TestBatchedStepParityAcrossWidths pins the cross-sequence GEMM step at
// the batch sizes the E21 scaling claim is made for (1, 2, 7, 16, 33): the
// X4/X2/X1 row grouping inside matMat and the per-sequence key-pack
// scoring must leave every row bitwise identical to a solo
// Predictor.Append, at every width and every position.
func TestBatchedStepParityAcrossWidths(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 29, Dim: 32, Layers: 2, Heads: 2, Window: 24, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 29, Dim: 24, Layers: 1, Heads: 2, Window: 21, Pos: PosSinusoidal, Act: nn.Tanh, PostNorm: true}, // head dim 12, window not /16
	} {
		m := MustNew(cfg, mathx.NewRNG(91))
		rng := mathx.NewRNG(92)
		for _, batch := range []int{1, 2, 7, 16, 33} {
			steps := cfg.Window
			toks := make([][]int, batch)
			for s := range toks {
				toks[s] = make([]int, steps)
				for j := range toks[s] {
					toks[s][j] = rng.Intn(cfg.Vocab)
				}
			}
			// Reference: each sequence alone through Append.
			want := make([][][]float64, batch)
			for s := range toks {
				p := m.NewPredictor()
				for _, id := range toks[s] {
					want[s] = append(want[s], append([]float64(nil), p.Append(id)...))
				}
			}
			bp := m.NewBatchedPredictor()
			ids := make([]int, batch)
			step := make([]int, batch)
			for i := range ids {
				ids[i] = bp.Add()
			}
			for j := 0; j < steps; j++ {
				for i := range step {
					step[i] = toks[i][j]
				}
				got := bp.Step(ids, step)
				for i := range got {
					bitsEqual(t, "step-width", got[i], want[i][j])
				}
			}
		}
	}
}

// TestBatchedStepProperty fuzzes the batched step against shadow solo
// predictors: random configurations (head widths incl. non-16, windows not
// divisible by 16, both norm orders, sparse masks), random batch
// compositions per step (any subset of the live sequences), and random
// interleaved Prefill chunks. Every returned row must match the shadow's
// Append bitwise.
func TestBatchedStepProperty(t *testing.T) {
	rng := mathx.NewRNG(441)
	for trial := 0; trial < 25; trial++ {
		heads := 1 + rng.Intn(3)
		hd := []int{4, 8, 12, 16, 20}[rng.Intn(5)]
		cfg := Config{
			Vocab:  11 + rng.Intn(40),
			Dim:    heads * hd,
			Hidden: 8 + rng.Intn(64),
			Layers: 1 + rng.Intn(2),
			Heads:  heads,
			Window: 18 + rng.Intn(46),
			Pos:    []PosKind{PosSinusoidal, PosLearned, PosNone}[rng.Intn(3)],
			Act:    []nn.Activation{nn.ReLU, nn.Tanh, nn.GELU}[rng.Intn(3)],
		}
		if rng.Intn(4) == 0 {
			cfg.PostNorm = true
		}
		if rng.Intn(5) == 0 {
			cfg.SparseStride = 2 + rng.Intn(3)
		}
		m := MustNew(cfg, mathx.NewRNG(uint64(trial)*17+3))
		bp := m.NewBatchedPredictor()
		n := 1 + rng.Intn(6)
		ids := make([]int, n)
		shadow := make([]*Predictor, n)
		for i := range ids {
			ids[i] = bp.Add()
			shadow[i] = m.NewPredictor()
		}
		for round := 0; round < 30; round++ {
			// Pick a random non-empty subset with window room left.
			var stepIDs, stepToks []int
			var stepShadow []*Predictor
			for i := range ids {
				if shadow[i].Len() < cfg.Window && rng.Intn(2) == 0 {
					tok := rng.Intn(cfg.Vocab)
					stepIDs = append(stepIDs, ids[i])
					stepToks = append(stepToks, tok)
					stepShadow = append(stepShadow, shadow[i])
				}
			}
			if len(stepIDs) == 0 {
				continue
			}
			// Occasionally prefill one member a short chunk instead.
			if rng.Intn(5) == 0 {
				i := rng.Intn(len(stepIDs))
				chunk := make([]int, 1+rng.Intn(4))
				for j := range chunk {
					chunk[j] = rng.Intn(cfg.Vocab)
				}
				room := cfg.Window - bp.Len(stepIDs[i])
				got := bp.Prefill(stepIDs[i], chunk)
				var want []float64
				for _, id := range truncTail(chunk, room) {
					want = stepShadow[i].Append(id)
				}
				if want != nil {
					bitsEqual(t, "property-prefill", got, want)
				}
				continue
			}
			got := bp.Step(stepIDs, stepToks)
			for i := range got {
				bitsEqual(t, "property-step", got[i], stepShadow[i].Append(stepToks[i]))
			}
		}
	}
}

func TestBatchedPredictorDropAndReuse(t *testing.T) {
	cfg := Config{Vocab: 7, Dim: 8, Layers: 1, Heads: 2, Window: 6, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(3))
	bp := m.NewBatchedPredictor()
	a := bp.Add()
	b := bp.Add()
	if bp.Size() != 2 {
		t.Fatalf("Size = %d", bp.Size())
	}
	bp.Step([]int{a, b}, []int{1, 2})
	bp.Drop(a)
	if bp.Size() != 1 {
		t.Fatalf("Size after drop = %d", bp.Size())
	}
	// b keeps decoding after a is gone, and new sequences can join.
	c := bp.Add()
	out := bp.Step([]int{b, c}, []int{3, 4})
	if len(out) != 2 || len(out[0]) != cfg.Vocab {
		t.Fatalf("step shape %d x %d", len(out), len(out[0]))
	}
	if bp.Len(b) != 2 || bp.Len(c) != 1 {
		t.Fatalf("lengths b=%d c=%d", bp.Len(b), bp.Len(c))
	}
}

func TestBatchedPredictorPanics(t *testing.T) {
	cfg := Config{Vocab: 7, Dim: 8, Layers: 1, Heads: 2, Window: 2, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(3))
	bp := m.NewBatchedPredictor()
	id := bp.Add()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("unknown id", func() { bp.Step([]int{99}, []int{0}) })
	// Every per-sequence entry point names the unknown id in its panic.
	for name, f := range map[string]func(){
		"Step":       func() { bp.Step([]int{99}, []int{0}) },
		"Prefill":    func() { bp.Prefill(99, []int{0}) },
		"PrefillAll": func() { bp.PrefillAll(99, []int{0}) },
		"Rewind":     func() { bp.Rewind(99, 0) },
		"Len":        func() { bp.Len(99) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "unknown batch sequence 99") {
					t.Errorf("%s on an unknown id: panic %q does not name the id", name, msg)
				}
			}()
			f()
		}()
	}
	expectPanic("duplicate id", func() { bp.Step([]int{id, id}, []int{0, 0}) })
	expectPanic("length mismatch", func() { bp.Step([]int{id}, []int{0, 1}) })
	bp.Step([]int{id}, []int{0})
	bp.Step([]int{id}, []int{1})
	expectPanic("window exhausted", func() { bp.Step([]int{id}, []int{2}) })
}

// TestReplicaSharesWeightsNotGrads checks the data-parallel contract: a
// replica reads the parent's parameter values (updates flow through) while
// gradients stay private to each copy.
func TestReplicaSharesWeightsNotGrads(t *testing.T) {
	cfg := Config{Vocab: 11, Dim: 16, Layers: 2, Heads: 2, Window: 8, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(5))
	r := m.Replica()
	mp, rp := m.Parameters(), r.Parameters()
	if len(mp) != len(rp) {
		t.Fatalf("parameter count %d != %d", len(mp), len(rp))
	}
	for i := range mp {
		if mp[i].Value != rp[i].Value {
			t.Fatalf("param %d: replica does not alias parent Value", i)
		}
		if mp[i].Grad == rp[i].Grad {
			t.Fatalf("param %d: replica shares parent Grad", i)
		}
	}
	input := []int{1, 2, 3, 4}
	target := []int{2, 3, 4, 5}
	lm := m.Loss(input, target).Value.Data[0]
	lr := r.Loss(input, target).Value.Data[0]
	if lm != lr {
		t.Fatalf("replica loss %v != parent loss %v", lr, lm)
	}
	// A weight edit on the parent is visible to the replica.
	mp[0].Value.Data[0] += 0.25
	if r.Parameters()[0].Value.Data[0] != mp[0].Value.Data[0] {
		t.Fatal("weight edit not visible through replica")
	}
}
