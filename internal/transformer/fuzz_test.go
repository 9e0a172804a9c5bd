package transformer

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/mathx"
)

// FuzzEngineSchedule decodes its input into a model shape and a schedule of
// Append / Extend(k) / ExtendAll(k) / Rewind(k) operations, and runs the
// schedule twice: on a Predictor, and on one sequence of a two-sequence
// BatchedPredictor (Step / Prefill / PrefillAll / Rewind) whose other
// sequence steps alongside it in every Append's Step. Every logits row
// either engine returns must equal bitwise the pre-compile reference
// (newLegacyPredictor) replaying the sequence's net history — the tokens
// fed and not rewound, after keep-last window truncation.
//
// Input layout: the first eight bytes (little-endian, zero-padded) seed
// randRewindConfig, the weights and the token draws; each following byte
// pair is one operation, the first byte's low two bits choosing the kind
// and the second byte its count. The seed corpus is in
// testdata/fuzz/FuzzEngineSchedule.
func FuzzEngineSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed [8]byte
		data = data[copy(seed[:], data):]
		s := binary.LittleEndian.Uint64(seed[:])
		rng := mathx.NewRNG(s)
		cfg := randRewindConfig(rng)
		t.Logf("cfg %+v", cfg)
		m := MustNew(cfg, mathx.NewRNG(s^0x9e3779b97f4a7c15))
		p := m.NewPredictor()
		bp := m.NewBatchedPredictor()
		a, b := bp.Add(), bp.Add()
		var hist, histB []int
		// check compares rows, the logits after the last len(rows)
		// positions of h, against a legacy replay of h.
		check := func(tag string, h []int, rows ...[]float64) {
			t.Helper()
			lp := newLegacyPredictor(m)
			for i, id := range h {
				want := lp.Append(id)
				if r := i - (len(h) - len(rows)); r >= 0 {
					bitsEqual(t, fmt.Sprintf("%s row %d", tag, r), rows[r], want)
				}
			}
		}
		for op := 0; op+1 < len(data) && op < 160; op += 2 {
			kind, k := data[op]&3, int(data[op+1])
			ids := make([]int, 1+k%(cfg.Window+4))
			for i := range ids {
				ids[i] = rng.Intn(cfg.Vocab)
			}
			switch kind {
			case 0: // Append: one token, batched alongside sequence b.
				if p.Len() == cfg.Window {
					continue
				}
				if bp.Len(b) == cfg.Window {
					bp.Rewind(b, cfg.Window/2)
					histB = histB[:len(histB)-cfg.Window/2]
				}
				tokB := rng.Intn(cfg.Vocab)
				got := p.Append(ids[0])
				rows := bp.Step([]int{a, b}, []int{ids[0], tokB})
				hist, histB = append(hist, ids[0]), append(histB, tokB)
				check("append/predictor", hist, got)
				check("append/batched", hist, rows[0])
				check("append/alongside", histB, rows[1])
			case 1, 2: // Extend / ExtendAll: one chunk, keep-last truncated.
				kept := truncTail(ids, cfg.Window-len(hist))
				var got, rows [][]float64
				if kind == 1 {
					if last := p.Extend(ids); last != nil {
						got = [][]float64{last}
					}
					if last := bp.Prefill(a, ids); last != nil {
						rows = [][]float64{last}
					}
				} else {
					got, rows = p.ExtendAll(ids), bp.PrefillAll(a, ids)
				}
				hist = append(hist, kept...)
				if len(kept) == 0 {
					if got != nil || rows != nil {
						t.Fatal("full window returned logits")
					}
					continue
				}
				check("extend/predictor", hist, got...)
				check("extend/batched", hist, rows...)
			case 3: // Rewind(k), k clamped to the cached length.
				n := k % (len(hist) + 1)
				p.Rewind(n)
				bp.Rewind(a, n)
				hist = hist[:len(hist)-n]
			}
			if p.Len() != len(hist) || bp.Len(a) != len(hist) || bp.Len(b) != len(histB) {
				t.Fatalf("lengths %d/%d/%d, want %d/%d", p.Len(), bp.Len(a), bp.Len(b), len(hist), len(histB))
			}
		}
	})
}
