// Benchmarks regenerating every table and figure of the paper (experiment
// ids E1-E15 per DESIGN.md). These are experiment drivers, not
// micro-benchmarks: each iteration runs the full workload and reports the
// scientific quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation series alongside timing.
package repro_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/icl"
	"repro/internal/interp"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/probe"
	"repro/internal/rnn"
	"repro/internal/sample"
	"repro/internal/scaling"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/train"
	"repro/internal/transformer"
)

// BenchmarkTable1ModelSizes is E1: the 12·D·p² estimate against every
// published row of Table 1. Reports the worst-case estimate/published ratio.
func BenchmarkTable1ModelSizes(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		for _, r := range scaling.Table1() {
			est := r.Estimate()
			if est == 0 {
				continue
			}
			ratio := est / r.PublishedParams
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > worst {
				worst = ratio
			}
		}
	}
	b.ReportMetric(worst, "worst-ratio")
}

// BenchmarkFigure2ScalingLaws is E2: the parameter/data sweep with power-law
// and Eq. 4 fits. Reports the fitted exponents.
func BenchmarkFigure2ScalingLaws(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := scaling.DefaultSweep()
		points, err := scaling.RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fp := scaling.FitLossVsParams(points)
		fd := scaling.FitLossVsData(points)
		b.ReportMetric(fp.Alpha, "alphaP")
		b.ReportMetric(fd.Alpha, "alphaD")
		b.ReportMetric(fp.R2, "R2-P")
	}
}

// BenchmarkFigure1WordProblems is E3: chain-of-thought vs direct training on
// the running-chain word problems. Reports both held-out solve rates.
func BenchmarkFigure1WordProblems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := eval.DefaultCoT()
		cfg.Steps = 800 // bench-scale: the full test run uses 1500
		cfg.TrainProblems = 300
		res, err := eval.ChainOfThoughtExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CoTAccuracy, "cot-acc")
		b.ReportMetric(res.DirectAccuracy, "direct-acc")
	}
}

// BenchmarkFigure3Parsing is E4: CYK parsing of the Figure 3 arithmetic
// grammar, including the y+1*x precedence fixture, across generated
// expressions.
func BenchmarkFigure3Parsing(b *testing.B) {
	g := grammar.Arithmetic()
	cnf := g.ToCNF()
	rng := mathx.NewRNG(1)
	sentences := make([][]string, 200)
	for i := range sentences {
		sentences[i] = g.GenerateSentence(rng, 10)
	}
	b.ResetTimer()
	parsed := 0
	for i := 0; i < b.N; i++ {
		if _, ok := cnf.Parse([]string{"y", "+", "1", "*", "x"}); !ok {
			b.Fatal("fixture failed to parse")
		}
		if cnf.Recognize(sentences[i%len(sentences)]) {
			parsed++
		}
	}
	b.ReportMetric(float64(parsed)/float64(b.N), "parse-rate")
}

// BenchmarkPerplexityLadder is E5: n-gram → LSTM → transformer held-out
// perplexity on one corpus. Reports each rung.
func BenchmarkPerplexityLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(9)
		trainLines := corpus.PCFGText(grammar.TinyEnglish(), 500, 10, rng)
		testLines := corpus.PCFGText(grammar.TinyEnglish(), 100, 10, rng.Split())
		ladder, err := core.PerplexityLadder(trainLines, testLines, core.DefaultLadder())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ladder {
			b.ReportMetric(e.Perplexity, "ppl-"+e.Name)
		}
	}
}

// BenchmarkAnalogyAccuracy is E6: Eq. 9 analogy accuracy of co-occurrence
// embeddings, full-dimension vs PCA-compressed.
func BenchmarkAnalogyAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(4)
		lines := corpus.AnalogyCorpus(4000, rng)
		vocab := embedVocab(lines)
		e := embedBuild(lines, vocab)
		quads := embedQuads()
		full := e.AnalogyAccuracy(quads)
		small := e.Compress(12, mathx.NewRNG(5)).AnalogyAccuracy(quads)
		b.ReportMetric(full, "acc-full")
		b.ReportMetric(small, "acc-pca12")
	}
}

// BenchmarkGrokkingModularArithmetic is E7: delayed generalization on
// modular addition with weight decay. Reports the step gap between train
// and test accuracy crossing 45%.
func BenchmarkGrokkingModularArithmetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const modulus = 13
		rng := mathx.NewRNG(13)
		eqs := corpus.ModularAddition(modulus)
		trainEqs, testEqs := corpus.SplitEquations(eqs, 0.5, rng)
		toBatch := func(eqs []corpus.ModEquation) []train.Batch {
			out := make([]train.Batch, len(eqs))
			for i, e := range eqs {
				ids := corpus.EncodeEquation(e, modulus)
				out[i] = train.Batch{Input: ids[:4], Target: []int{-1, -1, -1, ids[4]}}
			}
			return out
		}
		trainB, testB := toBatch(trainEqs), toBatch(testEqs)
		model := transformer.MustNew(transformer.Config{
			Vocab: corpus.ModVocabSize(modulus), Dim: 48, Layers: 1, Heads: 4,
			Window: 8, Pos: transformer.PosLearned, Act: nn.GELU,
		}, mathx.NewRNG(14))
		res, err := train.Run(model, trainB, train.Config{
			Steps: 1200, BatchSize: 16, Schedule: train.Constant(0.002),
			Optimizer: train.NewAdam(0.3), ClipNorm: 1,
			EvalEvery: 100, EvalTrain: trainB, EvalTest: testB,
			AccuracyPositions: []int{0},
		})
		if err != nil {
			b.Fatal(err)
		}
		trainStep, testStep, gap := train.GrokkingGap(res.Curve, 0.45)
		b.ReportMetric(float64(trainStep), "train-step")
		b.ReportMetric(float64(testStep), "test-step")
		b.ReportMetric(float64(gap), "gap-steps")
	}
}

// BenchmarkInductionHead is E8: train on repeated sequences and report the
// best induction-head score plus repeat accuracy.
func BenchmarkInductionHead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(42)
		vocab, seqLen := 8, 16
		model := transformer.MustNew(transformer.Config{
			Vocab: vocab, Dim: 32, Layers: 2, Heads: 2, Window: seqLen,
			Pos: transformer.PosLearned, Act: nn.GELU,
		}, rng)
		seqs := corpus.RepeatedBigramCorpus(60, seqLen, vocab, rng)
		var data []train.Batch
		for _, s := range seqs {
			tg := make([]int, len(s)-1)
			for j := range tg {
				if j+1 >= len(s)/2 {
					tg[j] = s[j+1]
				} else {
					tg[j] = -1
				}
			}
			data = append(data, train.Batch{Input: s[:len(s)-1], Target: tg})
		}
		if _, err := train.Run(model, data, train.Config{
			Steps: 250, BatchSize: 4, Schedule: train.Constant(0.002),
			Optimizer: train.NewAdam(0), ClipNorm: 1, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
		best := interp.BestHead(interp.ScoreHeads(model, seqs[:20]))
		b.ReportMetric(best.Score, "induction-score")
		b.ReportMetric(interp.RepeatAccuracy(model, seqs), "repeat-acc")
	}
}

// BenchmarkOthelloProbe is E9: world-model probing on Othello-GPT.
func BenchmarkOthelloProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := probe.DefaultOthello()
		cfg.Games = 100
		cfg.Steps = 300
		res, err := probe.RunOthello(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LegalMoveRate, "legal-rate")
		b.ReportMetric(res.ProbeAccuracy, "probe-acc")
		b.ReportMetric(res.MajorityBaseline, "baseline")
		b.ReportMetric(res.InterventionFlipRate, "flip-rate")
	}
}

// BenchmarkStructuralProbe is E10: tree-distance recovery by low-rank
// projection; reports correlation at two ranks.
func BenchmarkStructuralProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(5)
		data := structuralData(30, rng)
		low, err := probe.TrainStructural(data, 3, 200, 0.05, rng)
		if err != nil {
			b.Fatal(err)
		}
		high, err := probe.TrainStructural(data, 12, 200, 0.05, rng)
		if err != nil {
			b.Fatal(err)
		}
		cl, _ := low.Evaluate(data)
		ch, _ := high.Evaluate(data)
		b.ReportMetric(cl, "corr-rank3")
		b.ReportMetric(ch, "corr-rank12")
	}
}

// BenchmarkICLRegression is E11: in-context regression vs the explicit
// computational models.
func BenchmarkICLRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(9)
		m := icl.MustNewModel(1, 32, 2, 2, 8, rng)
		m.Train(800, 8, 8, 0.3, 0.003, rng)
		res := icl.Compare(m, 100, 6, 0.3, mathx.NewRNG(10))
		b.ReportMetric(res["transformer"], "mse-transformer")
		b.ReportMetric(res["ridge"], "mse-ridge")
		b.ReportMetric(res["gd1"], "mse-gd1")
		b.ReportMetric(res["zero"], "mse-zero")
	}
}

// BenchmarkAttentionQuadratic is E12a: transformer forward cost vs window
// length L (expected ~quadratic growth).
func BenchmarkAttentionQuadratic(b *testing.B) {
	for _, l := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("L%d", l), func(b *testing.B) {
			rng := mathx.NewRNG(1)
			m := transformer.MustNew(transformer.Config{
				Vocab: 50, Dim: 32, Layers: 2, Heads: 2, Window: l,
				Pos: transformer.PosSinusoidal, Act: nn.GELU,
			}, rng)
			ids := make([]int, l)
			for i := range ids {
				ids[i] = rng.Intn(50)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardLogits(ids)
			}
		})
	}
}

// BenchmarkRNNLinear is E12b: RNN sequential cost vs window length L
// (expected ~linear growth, but inherently serial).
func BenchmarkRNNLinear(b *testing.B) {
	for _, l := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("L%d", l), func(b *testing.B) {
			rng := mathx.NewRNG(2)
			m := rnn.MustNew(rnn.Config{Vocab: 50, Dim: 32, Hidden: 32, Kind: rnn.LSTM}, rng)
			ids := make([]int, l)
			for i := range ids {
				ids[i] = rng.Intn(50)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := m.NewState()
				for _, id := range ids {
					m.Step(st, id)
				}
			}
		})
	}
}

// BenchmarkSparseAttention is E12c: dense vs strided-sparse attention at a
// fixed window (the §6 sparse-transformer mitigation).
func BenchmarkSparseAttention(b *testing.B) {
	for _, stride := range []int{0, 8} {
		name := "dense"
		if stride > 0 {
			name = fmt.Sprintf("stride%d", stride)
		}
		b.Run(name, func(b *testing.B) {
			rng := mathx.NewRNG(3)
			m := transformer.MustNew(transformer.Config{
				Vocab: 50, Dim: 32, Layers: 2, Heads: 2, Window: 128,
				Pos: transformer.PosSinusoidal, Act: nn.GELU, SparseStride: stride,
			}, rng)
			ids := make([]int, 128)
			for i := range ids {
				ids[i] = rng.Intn(50)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardLogits(ids)
			}
		})
	}
}

// BenchmarkFewShotLift is E13: zero-shot vs few-shot accuracy of the
// demonstration-dependent imitator harness plus real prompt assembly cost.
func BenchmarkFewShotLift(b *testing.B) {
	rng := mathx.NewRNG(10)
	task := eval.ReverseTask(30, 3, rng)
	for i := 0; i < b.N; i++ {
		zero := eval.ScoreTask(imitator{}, task, eval.PromptConfig{Shots: 0}, mathx.NewRNG(11))
		few := eval.ScoreTask(imitator{}, task, eval.PromptConfig{Shots: 2}, mathx.NewRNG(11))
		b.ReportMetric(few-zero, "lift")
		b.ReportMetric(few, "fewshot-acc")
	}
}

// BenchmarkSamplingStrategies is E14: throughput of the Eq. 8 decoding
// family over a fixed logits vector.
func BenchmarkSamplingStrategies(b *testing.B) {
	rng := mathx.NewRNG(12)
	logits := make([]float64, 512)
	for i := range logits {
		logits[i] = rng.Norm()
	}
	strategies := map[string]sample.Strategy{
		"greedy": sample.Greedy{},
		"temp":   sample.Temperature{T: 0.8},
		"topk":   sample.TopK{K: 40, T: 0.8},
		"topp":   sample.TopP{P: 0.9, T: 0.8},
	}
	for name, s := range strategies {
		b.Run(name, func(b *testing.B) {
			r := mathx.NewRNG(13)
			for i := 0; i < b.N; i++ {
				s.Pick(logits, r)
			}
		})
	}
}

// BenchmarkTrainStep is E16: optimizer-step throughput of the data-parallel
// trainer at several worker counts on a fixed transformer and corpus. The
// Workers=1 rung is bit-identical to the classic sequential loop; higher
// rungs shard each minibatch across weight-sharing replicas with
// deterministic gradient reduction. Speedup over workers1 requires actual
// cores: with GOMAXPROCS=1 all rungs collapse to sequential throughput.
func BenchmarkTrainStep(b *testing.B) {
	const vocab, window = 96, 32
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			rng := mathx.NewRNG(41)
			model := transformer.MustNew(transformer.Config{
				Vocab: vocab, Dim: 64, Layers: 2, Heads: 4, Window: window,
				Pos: transformer.PosLearned, Act: nn.GELU,
			}, rng)
			data := make([]train.Batch, 64)
			for i := range data {
				in := make([]int, window)
				tg := make([]int, window)
				for j := range in {
					in[j] = rng.Intn(vocab)
					tg[j] = rng.Intn(vocab)
				}
				data[i] = train.Batch{Input: in, Target: tg}
			}
			b.ResetTimer()
			if _, err := train.Run(model, data, train.Config{
				Steps: b.N, BatchSize: 8, Schedule: train.Constant(0.001),
				Optimizer: train.NewAdam(0), ClipNorm: 1, Seed: 1, Workers: workers,
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// BenchmarkBatchedGeneration is E17: KV-cache decoding throughput, one
// sequence at a time (the pre-serving path) vs eight sequences per batched
// step (the serving path). Reports tokens generated per second.
func BenchmarkBatchedGeneration(b *testing.B) {
	const vocab, window, gen = 96, 64, 48
	rng := mathx.NewRNG(43)
	model := transformer.MustNew(transformer.Config{
		Vocab: vocab, Dim: 64, Layers: 2, Heads: 4, Window: window,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}, rng)
	prompt := []int{1, 2, 3}
	decodeSerial := func(n int) {
		for s := 0; s < n; s++ {
			p := model.NewPredictor()
			var logits []float64
			for _, id := range prompt {
				logits = p.Append(id)
			}
			for i := 0; i < gen-1; i++ {
				next, _ := mathx.ArgMax(logits)
				logits = p.Append(next)
			}
		}
	}
	decodeBatched := func(n int) {
		bp := model.NewBatchedPredictor()
		ids := make([]int, n)
		last := make([]int, n)
		for i := range ids {
			ids[i] = bp.Add()
		}
		for _, tok := range prompt {
			for i := range last {
				last[i] = tok
			}
			for i, row := range bp.Step(ids, last) {
				last[i], _ = mathx.ArgMax(row)
			}
		}
		for i := 0; i < gen-1; i++ {
			for j, row := range bp.Step(ids, last) {
				last[j], _ = mathx.ArgMax(row)
			}
		}
	}
	for _, bench := range []struct {
		name string
		run  func()
		seqs int
	}{
		{"serial1", func() { decodeSerial(1) }, 1},
		{"serial8", func() { decodeSerial(8) }, 8},
		{"batched8", func() { decodeBatched(8) }, 8},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.run()
			}
			b.ReportMetric(float64(b.N*bench.seqs*gen)/b.Elapsed().Seconds(), "tok/s")
		})
	}
}

// BenchmarkStreamingFirstToken is E18: time-to-first-token of the
// streaming API through the batched server, as a function of the number of
// concurrently streaming requests. Each iteration fires `load` Stream
// calls at an idle server and measures submission → first token-event for
// every request; the reported ttft-ms is the mean. Because the batch
// shares each decoding step's matrix work, first-token latency should grow
// sublinearly with load.
func BenchmarkStreamingFirstToken(b *testing.B) {
	lines := corpus.PCFGText(grammar.TinyEnglish(), 120, 10, mathx.NewRNG(11))
	model, _, err := core.Train(lines, core.Config{
		Tokenizer: core.WordTok,
		Model: transformer.Config{
			Dim: 32, Layers: 2, Heads: 2, Window: 32,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 30, BatchSize: 2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, load := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("load%d", load), func(b *testing.B) {
			s := serve.New(model, serve.Config{MaxBatch: 8, CoalesceWait: time.Millisecond})
			defer s.Close()
			var mu sync.Mutex
			var totalFirst time.Duration
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				start := time.Now()
				for j := 0; j < load; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						first := true
						_, err := s.Stream(context.Background(),
							serve.NewRequest("the king",
								sample.WithMaxTokens(12), sample.WithSeed(uint64(j))),
							func(sample.Token) error {
								if first {
									first = false
									mu.Lock()
									totalFirst += time.Since(start)
									mu.Unlock()
								}
								return nil
							})
						if err != nil {
							b.Error(err)
						}
					}(j)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(totalFirst.Microseconds())/1000/float64(b.N*load), "ttft-ms")
		})
	}
}

// BenchmarkDecodeToken is E19: steady-state single-sequence decode cost of
// the compiled inference fast path on the E18 serving config — per-token
// latency, tokens/sec, and allocations per token (the latter pinned to zero
// by the arena + preallocated KV cache; see also the regression test in
// internal/transformer). Each iteration appends one token to a predictor
// that is re-armed (outside the timer) whenever the window fills.
func BenchmarkDecodeToken(b *testing.B) {
	lines := corpus.PCFGText(grammar.TinyEnglish(), 120, 10, mathx.NewRNG(11))
	model, _, err := core.Train(lines, core.Config{
		Tokenizer: core.WordTok,
		Model: transformer.Config{
			Dim: 32, Layers: 2, Heads: 2, Window: 32,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 30, BatchSize: 2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := model.Model
	prompt, err := model.EncodePrompt("the king", 24)
	if err != nil {
		b.Fatal(err)
	}
	arm := func() (*transformer.Predictor, []float64) {
		p := m.NewPredictor()
		var logits []float64
		for _, id := range prompt {
			logits = p.Append(id)
		}
		return p, logits
	}
	p, logits := arm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Len() >= m.Cfg.Window {
			b.StopTimer()
			p, logits = arm()
			b.StartTimer()
		}
		next, _ := mathx.ArgMax(logits)
		logits = p.Append(next)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkBatchedDecodeScaling is E21: batched decode throughput as a
// function of batch size, on the E17 serving shape (the config
// BenchmarkBatchedGeneration serves). Each batchN iteration runs one
// BatchedPredictor.Step over N concurrent sequences; with the
// cross-sequence GEMM step every packed weight block is streamed from
// memory once per step regardless of N, so tokens/s should scale with N
// until the per-sequence attention work (which cannot batch across
// sequences) dominates (per-row decoding instead re-streams the whole
// weight set N times per step, pinning per-step cost to N × the batch-1
// cost). The serialN rungs measure that per-row baseline: N independent
// Predictor.Append calls, each a width-1 step. Sequences re-arm at the window, so each rung
// decodes the same position distribution regardless of iteration count.
func BenchmarkBatchedDecodeScaling(b *testing.B) {
	const vocab, window = 96, 64
	cfg := transformer.Config{
		Vocab: vocab, Dim: 64, Layers: 2, Heads: 4, Window: window,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}
	m := transformer.MustNew(cfg, mathx.NewRNG(21))
	seed := []int{1, 2, 3}
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			bp := m.NewBatchedPredictor()
			ids := make([]int, batch)
			last := make([]int, batch)
			arm := func() {
				for i := range ids {
					ids[i] = bp.Add()
					last[i] = seed[0]
				}
				for _, tok := range seed[1:] {
					bp.Step(ids, last)
					for i := range last {
						last[i] = tok
					}
				}
			}
			arm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bp.Len(ids[0]) >= window {
					b.StopTimer()
					for _, id := range ids {
						bp.Drop(id)
					}
					arm()
					b.StartTimer()
				}
				for j, row := range bp.Step(ids, last) {
					last[j], _ = mathx.ArgMax(row)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tok/s")
		})
		b.Run(fmt.Sprintf("serial%d", batch), func(b *testing.B) {
			ps := make([]*transformer.Predictor, batch)
			last := make([]int, batch)
			arm := func() {
				for i := range ps {
					ps[i] = m.NewPredictor()
					var logits []float64
					for _, tok := range seed {
						logits = ps[i].Append(tok)
					}
					last[i], _ = mathx.ArgMax(logits)
				}
			}
			arm()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ps[0].Len() >= window {
					b.StopTimer()
					arm()
					b.StartTimer()
				}
				for j, p := range ps {
					last[j], _ = mathx.ArgMax(p.Append(last[j]))
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tok/s")
		})
	}
}

// speculativeBenchModel trains the E22 fixture once per binary: the E17
// serving shape on the low-entropy chronicle corpus — formulaic text whose
// greedy continuations are mostly deterministic given short context, the
// regime draft-and-verify decoding is built for.
var speculativeBenchModel = sync.OnceValues(func() (*core.LLM, error) {
	lines := corpus.PCFGText(grammar.Chronicle(), 400, 12, mathx.NewRNG(22))
	model, _, err := core.Train(lines, core.Config{
		Tokenizer: core.WordTok,
		Model: transformer.Config{
			Dim: 64, Layers: 2, Heads: 4, Window: 64,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 200, BatchSize: 4, Seed: 22,
	})
	return model, err
})

// BenchmarkSpeculativeDecode is E22: end-to-end greedy generation
// throughput with self-speculative decoding versus the plain decode loop,
// on the E17 serving shape. An order-3 n-gram drafter distilled from the
// served model proposes k-token blocks; one ExtendAll pass verifies each
// block and the longest agreeing prefix is accepted, so the output stream
// is bitwise identical to plain greedy decode (checked every iteration).
// Reports tokens/s and the draft-acceptance rate per depth.
func BenchmarkSpeculativeDecode(b *testing.B) {
	model, err := speculativeBenchModel()
	if err != nil {
		b.Fatal(err)
	}
	const prompt = "the royal king"
	const genTokens = 56
	opts := []sample.Option{sample.WithMaxTokens(genTokens), sample.WithSeed(1)}
	plain, err := lm.Gen(model, prompt, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lm.Gen(model, prompt, opts...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*genTokens)/b.Elapsed().Seconds(), "tok/s")
	})
	drafter := lm.DistillDrafter(model, 3, 4096, 22)
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("speculate%d", k), func(b *testing.B) {
			sp := &sample.Speculative{K: k, Drafter: drafter}
			sp.Stats = sample.SpecStats{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := lm.Gen(model, prompt, append(append([]sample.Option(nil), opts...),
					sample.WithSpeculative(sp))...)
				if err != nil {
					b.Fatal(err)
				}
				if res.Text != plain.Text {
					b.Fatalf("speculative output %q != plain %q", res.Text, plain.Text)
				}
			}
			b.ReportMetric(float64(b.N*genTokens)/b.Elapsed().Seconds(), "tok/s")
			if sp.Stats.Drafted > 0 {
				b.ReportMetric(float64(sp.Stats.Accepted)/float64(sp.Stats.Drafted), "accept")
			}
		})
	}
}

// BenchmarkGPT3ParameterFormula is E15: the §6 parameter arithmetic.
func BenchmarkGPT3ParameterFormula(b *testing.B) {
	var got int
	for i := 0; i < b.N; i++ {
		got = transformer.GPT3Estimate(96, 12288)
	}
	b.ReportMetric(float64(got)/1e9, "params-B")
}

// BenchmarkPrefill is E20: prompt ingestion throughput of the chunked
// prefill fast path (Predictor.Extend, matrix-matrix over the whole prompt)
// against the token-by-token Append loop it replaces, for a 256-token
// prompt at the E18 serving shape. Outputs are bitwise identical (see the
// parity tests in internal/transformer); only the schedule of the
// arithmetic differs. Timing does not depend on weight values, so the
// model is randomly initialized.
func BenchmarkPrefill(b *testing.B) {
	cfg := transformer.Config{
		Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 288,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}
	m := transformer.MustNew(cfg, mathx.NewRNG(9))
	rng := mathx.NewRNG(10)
	prompt := make([]int, 256)
	for i := range prompt {
		prompt[i] = rng.Intn(cfg.Vocab)
	}
	b.Run("extend", func(b *testing.B) {
		m.NewPredictor().Extend(prompt) // compile + warm outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := m.NewPredictor()
			b.StartTimer()
			p.Extend(prompt)
		}
		b.ReportMetric(float64(b.N*len(prompt))/b.Elapsed().Seconds(), "tok/s")
	})
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := m.NewPredictor()
			b.StartTimer()
			for _, id := range prompt {
				p.Append(id)
			}
		}
		b.ReportMetric(float64(b.N*len(prompt))/b.Elapsed().Seconds(), "tok/s")
	})
}

// BenchmarkTTFTLongPrompt is the E20 serving measurement: time-to-first-
// token through the batched server as a function of prompt length and
// concurrent load. Chunked prefill scheduling keeps TTFT growing roughly
// linearly in prompt length while concurrent decodes continue between
// chunks.
func BenchmarkTTFTLongPrompt(b *testing.B) {
	lines := corpus.PCFGText(grammar.TinyEnglish(), 120, 10, mathx.NewRNG(11))
	tok := tokenizer.NewWord(lines)
	cfg := transformer.Config{
		Vocab: tok.VocabSize(), Dim: 32, Layers: 2, Heads: 2, Window: 288,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}
	model := &core.LLM{Tok: tok, Model: transformer.MustNew(cfg, mathx.NewRNG(12))}
	for _, promptLen := range []int{16, 64, 256} {
		prompt := strings.TrimSpace(strings.Repeat("the ", promptLen))
		chunks := []int{0} // 0 = the default chunk size
		if promptLen == 256 {
			// The one-token-chunk variant approximates the pre-fast-path
			// loop (one forced prompt token per step), quantifying what
			// chunked prefill buys at the serving layer.
			chunks = []int{0, 1}
		}
		for _, load := range []int{1, 8} {
			for _, chunk := range chunks {
				name := fmt.Sprintf("prompt%d/load%d", promptLen, load)
				if chunk > 0 {
					name += fmt.Sprintf("/chunk%d", chunk)
				}
				b.Run(name, func(b *testing.B) {
					s := serve.New(model, serve.Config{
						MaxBatch: 8, CoalesceWait: time.Millisecond, PrefillChunk: chunk,
					})
					defer s.Close()
					var mu sync.Mutex
					var totalFirst time.Duration
					for i := 0; i < b.N; i++ {
						var wg sync.WaitGroup
						start := time.Now()
						for j := 0; j < load; j++ {
							wg.Add(1)
							go func(j int) {
								defer wg.Done()
								first := true
								_, err := s.Stream(context.Background(),
									serve.NewRequest(prompt,
										sample.WithMaxTokens(8), sample.WithSeed(uint64(j))),
									func(sample.Token) error {
										if first {
											first = false
											mu.Lock()
											totalFirst += time.Since(start)
											mu.Unlock()
										}
										return nil
									})
								if err != nil {
									b.Error(err)
								}
							}(j)
						}
						wg.Wait()
					}
					b.ReportMetric(float64(totalFirst.Microseconds())/1000/float64(b.N*load), "ttft-ms")
				})
			}
		}
	}
}
