// Command llm-bench scores a model on the synthetic benchmark suite (the
// repository's stand-in for BIG-bench, §4 of the paper) at several few-shot
// settings and prints a leaderboard. It either loads a checkpoint or trains
// a fresh tiny model on the synthetic corpus.
//
// With -json it instead runs the inference performance benchmarks — the
// chunked-prefill fast path against token-by-token prompt ingestion,
// steady-state decode, and the E21 batched-decode scaling sweep (tokens/s
// of the cross-sequence GEMM step at each -decode-batch size) — on the E18
// serving shape, and writes the results as machine-readable JSON
// (BENCH_prefill.json, BENCH_decode.json, and BENCH_decode_batch.json in
// -out), so the performance trajectory across commits can be tracked by
// tooling rather than read out of benchmark logs.
//
// With -speculate it runs the end-to-end speculative-decoding sweep (E22):
// a model trained on PCFG text at the E17 serving shape, an n-gram draft
// model distilled from it, greedy tokens/s of plain decoding versus
// speculative decoding at each -speculate-k draft depth (checking bitwise
// parity on every run), with per-depth acceptance-length histograms —
// written to BENCH_speculate.json in -out.
//
// With -load it runs the end-to-end HTTP serving-tier load benchmark (E23):
// either self-hosting a complete in-process tier — llm-serve worker stacks
// on real loopback listeners, with and without an llm-router in front — or
// driving an already-running deployment via -target. Closed-loop (fixed
// concurrency) and open-loop (fixed arrival rate) phases measure aggregate
// tokens/s, time-to-first-token p50/p99, and error/shed counts, written to
// BENCH_serve_load.json.
//
// With -chaos it runs the fault-injection chaos harness (E24): the same
// self-hosted worker+router fleet, driven twice with a seeded request set —
// once fault-free, once under an armed failpoint plan injecting sampler
// panics, a whole-batch step fault, prefill/verify errors, relay faults,
// dropped connections, and starved deadlines — asserting the serving
// stack's failure invariants: zero lost requests, workers survive injected
// panics, surviving requests bitwise identical to the fault-free run, and
// bounded post-ejection recovery. Results go to BENCH_chaos.json.
//
// With -chaos -churn it runs the membership-churn chaos harness instead
// (E25): a router that starts with an empty fleet, workers that join via
// lease-based registration, and a seeded schedule of worker kills,
// restarts, cold joins, and graceful leaves mid-run — under failpoints on
// the register/heartbeat control plane — asserting zero lost requests,
// bitwise-intact survivors, minimal session remap across membership
// epochs, and bounded rejoin-to-traffic time. Results go to
// BENCH_chaos_churn.json.
//
// With -chaos -router-ha it runs the router-high-availability harness
// (E26): two peered llm-routers replicating lease-based membership over
// one worker fleet, a failover client, and a seeded schedule that kills
// one router mid-load, restarts it on the same address, joins a worker at
// only one router (the other must learn it by gossip), and partitions the
// peer-sync channel — asserting zero lost requests, bitwise-intact
// survivors, bounded router recovery-to-traffic, and identical membership
// ledgers once the tier reconverges. Results go to
// BENCH_chaos_router_ha.json.
//
// Usage:
//
//	llm-bench [-model model.json] [-shots 0,3] [-seed 1]
//	llm-bench -json [-out .] [-prompt-tokens 256] [-reps 30]
//	          [-decode-batch 1,2,4,8,16,32]
//	llm-bench -speculate [-out .] [-reps 30] [-speculate-k 2,4,8]
//	llm-bench -load [-out .] [-target http://host:8371] [-load-workers 2]
//	          [-conns 8] [-requests 60] [-rate 100] [-load-tokens 16]
//	llm-bench -chaos [-out .] [-seed 1] [-load-workers 2]
//	          [-conns 8] [-requests 60] [-load-tokens 16]
//	llm-bench -chaos -churn [-out .] [-seed 1]
//	          [-conns 8] [-requests 60] [-load-tokens 16]
//	llm-bench -chaos -router-ha [-out .] [-seed 1]
//	          [-conns 8] [-requests 60] [-load-tokens 16]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/transformer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llm-bench: ")
	var (
		modelPath = flag.String("model", "", "checkpoint path; empty = train a fresh tiny model")
		shotsFlag = flag.String("shots", "0,3", "comma-separated shot counts")
		seed      = flag.Uint64("seed", 1, "random seed")
		jsonMode  = flag.Bool("json", false, "run the inference perf benchmarks and write BENCH_*.json instead of the eval leaderboard")
		outDir    = flag.String("out", ".", "directory for the -json result files")
		promptLen = flag.Int("prompt-tokens", 256, "prompt length for the -json prefill benchmark")
		reps      = flag.Int("reps", 30, "repetitions per -json measurement")
		decBatch  = flag.String("decode-batch", "1,2,4,8,16,32", "comma-separated batch sizes for the -json batched-decode scaling sweep")
		speculate = flag.Bool("speculate", false, "run the speculative-decoding sweep and write BENCH_speculate.json")
		specK     = flag.String("speculate-k", "2,4,8", "comma-separated draft depths for the -speculate sweep")
		loadMode  = flag.Bool("load", false, "run the HTTP serving-tier load benchmark and write BENCH_serve_load.json")
		chaosMode = flag.Bool("chaos", false, "run the fault-injection chaos harness and write BENCH_chaos.json")
		churnMode = flag.Bool("churn", false, "with -chaos: run the membership-churn harness and write BENCH_chaos_churn.json")
		haMode    = flag.Bool("router-ha", false, "with -chaos: run the router-high-availability harness and write BENCH_chaos_router_ha.json")
		target    = flag.String("target", "", "-load: base URL of a running router or worker; empty = self-host an in-process tier")
		workers   = flag.Int("load-workers", 2, "-load/-chaos: worker count behind the self-hosted router scenario")
		conns     = flag.Int("conns", 8, "-load/-chaos: client concurrency")
		requests  = flag.Int("requests", 60, "-load/-chaos: requests per scenario / arrivals per open-loop run")
		rate      = flag.Float64("rate", 100, "-load: open-loop arrival rate in req/s (0 disables the open-loop phase)")
		loadTok   = flag.Int("load-tokens", 16, "-load/-chaos: tokens generated per request")
	)
	flag.Parse()

	if *chaosMode {
		o := chaosOpts{
			workers: *workers, conns: *conns,
			requests: *requests, tokens: *loadTok, seed: *seed,
		}
		var err error
		switch {
		case *haMode:
			err = runRouterHAJSON(*outDir, o)
		case *churnMode:
			err = runChurnJSON(*outDir, o)
		default:
			err = runChaosJSON(*outDir, o)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *loadMode {
		err := runLoadJSON(*outDir, loadOpts{
			target: *target, workers: *workers, conns: *conns,
			requests: *requests, rate: *rate, tokens: *loadTok, seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *speculate {
		ks, err := parseInts(*specK)
		if err != nil {
			log.Fatalf("bad -speculate-k: %v", err)
		}
		if err := runSpeculateJSON(*outDir, *reps, *seed, ks); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *jsonMode {
		batches, err := parseInts(*decBatch)
		if err != nil {
			log.Fatalf("bad -decode-batch: %v", err)
		}
		if err := runPerfJSON(*outDir, *promptLen, *reps, *seed, batches); err != nil {
			log.Fatal(err)
		}
		return
	}

	var model *core.LLM
	name := "fresh-tiny"
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err = core.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name = *modelPath
	} else {
		lines := corpus.PCFGText(grammar.TinyEnglish(), 400, 10, mathx.NewRNG(*seed))
		var err error
		model, _, err = core.Train(lines, core.Config{
			Tokenizer: core.WordTok,
			Model: transformer.Config{
				Dim: 32, Layers: 2, Heads: 2, Window: 16,
				Pos: transformer.PosLearned, Act: nn.GELU,
			},
			Steps: 300, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Println("trained a fresh tiny model on the synthetic corpus")
	}

	shots, err := parseInts(*shotsFlag)
	if err != nil {
		log.Fatalf("bad -shots: %v", err)
	}

	var lb eval.Leaderboard
	for _, task := range eval.Suite(mathx.NewRNG(*seed + 1)) {
		for _, sh := range shots {
			acc := eval.ScoreTask(model, task, eval.PromptConfig{Shots: sh}, mathx.NewRNG(*seed+2))
			lb.Add(name, task.Name, sh, acc)
		}
	}
	fmt.Print(lb.Format())
}

// perfResult is one benchmark's machine-readable record. Fields are stable:
// downstream tooling diffs them across commits. Hists carries acceptance-
// length histograms for the -speculate sweep (bucket i = rounds accepting
// exactly i draft tokens). GOMAXPROCS and GoVersion, stamped by writeBench,
// say which path a record measured: the batched decode step forks its rows
// across GOMAXPROCS, so decode_batch figures depend on it.
type perfResult struct {
	Bench        string              `json:"bench"`
	Shape        map[string]int      `json:"shape"`
	PromptTokens int                 `json:"prompt_tokens,omitempty"`
	Reps         int                 `json:"reps"`
	Metrics      map[string]float64  `json:"metrics"`
	Hists        map[string][]uint64 `json:"hists,omitempty"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	GoVersion    string              `json:"go_version"`
	UnixTime     int64               `json:"unix_time"`
}

// parseInts splits a comma-separated list of positive integers.
func parseInts(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("%d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// runPerfJSON measures prefill (chunked Extend vs token-by-token Append),
// steady-state decode, and batched-decode scaling (tokens/s per batch size,
// E21) on the E18 serving shape with randomly initialized weights (timing
// is weight-value independent), writing BENCH_prefill.json,
// BENCH_decode.json, and BENCH_decode_batch.json into dir.
func runPerfJSON(dir string, promptLen, reps int, seed uint64, batches []int) error {
	if promptLen < 1 {
		return fmt.Errorf("-prompt-tokens %d must be positive", promptLen)
	}
	if reps < 1 {
		return fmt.Errorf("-reps %d must be positive", reps)
	}
	if len(batches) == 0 {
		return fmt.Errorf("-decode-batch must name at least one batch size")
	}
	cfg := transformer.Config{
		Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: promptLen + 32,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}
	m := transformer.MustNew(cfg, mathx.NewRNG(seed))
	rng := mathx.NewRNG(seed + 1)
	prompt := make([]int, promptLen)
	for i := range prompt {
		prompt[i] = rng.Intn(cfg.Vocab)
	}
	shape := map[string]int{
		"vocab": cfg.Vocab, "dim": cfg.Dim, "layers": cfg.Layers,
		"heads": cfg.Heads, "window": cfg.Window,
	}

	m.NewPredictor().Extend(prompt) // compile + warm outside the timers
	extend := minDuration(reps, func() time.Duration {
		p := m.NewPredictor()
		start := time.Now()
		p.Extend(prompt)
		return time.Since(start)
	})
	appendT := minDuration(reps, func() time.Duration {
		p := m.NewPredictor()
		start := time.Now()
		for _, id := range prompt {
			p.Append(id)
		}
		return time.Since(start)
	})
	prefill := perfResult{
		Bench: "prefill", Shape: shape, PromptTokens: promptLen, Reps: reps,
		Metrics: map[string]float64{
			"extend_ns":      float64(extend.Nanoseconds()),
			"append_ns":      float64(appendT.Nanoseconds()),
			"extend_tok_s":   tokPerSec(promptLen, extend),
			"append_tok_s":   tokPerSec(promptLen, appendT),
			"extend_speedup": float64(appendT) / float64(extend),
		},
		UnixTime: time.Now().Unix(),
	}

	// Steady-state decode: greedy continuation after a short seed prompt,
	// on its own fixed shape (window sized so the timed loop never re-arms
	// a predictor and the metric is independent of -prompt-tokens).
	const decodeTokens = 256
	const decodeSeed = 16
	dcfg := cfg
	dcfg.Window = decodeSeed + decodeTokens
	dm := transformer.MustNew(dcfg, mathx.NewRNG(seed))
	dshape := map[string]int{
		"vocab": dcfg.Vocab, "dim": dcfg.Dim, "layers": dcfg.Layers,
		"heads": dcfg.Heads, "window": dcfg.Window,
	}
	seedPrompt := make([]int, decodeSeed)
	for i := range seedPrompt {
		seedPrompt[i] = rng.Intn(dcfg.Vocab)
	}
	dm.NewPredictor().Extend(seedPrompt) // compile + warm outside the timer
	decode := minDuration(reps, func() time.Duration {
		p := dm.NewPredictor()
		logits := p.Extend(seedPrompt)
		start := time.Now()
		for j := 0; j < decodeTokens; j++ {
			next, _ := mathx.ArgMax(logits)
			logits = p.Append(next)
		}
		return time.Since(start)
	})
	decodeRes := perfResult{
		Bench: "decode", Shape: dshape, Reps: reps,
		Metrics: map[string]float64{
			"decode_ns":    float64(decode.Nanoseconds()),
			"decode_tok_s": tokPerSec(decodeTokens, decode),
		},
		UnixTime: time.Now().Unix(),
	}

	// Batched-decode scaling (E21): tokens/s of the cross-sequence GEMM
	// step at each requested batch size, same decode shape. Per-step weight
	// traffic is constant in the batch size, so tokens/s growing with the
	// batch (and step latency growing sublinearly) is the signature being
	// tracked across commits.
	batchMetrics := map[string]float64{}
	for _, batch := range batches {
		// One predictor per batch size, reused across reps, so the warm
		// run really does grow the step arena the timed reps then reuse
		// (sequences re-arm per rep outside the clock).
		bp := dm.NewBatchedPredictor()
		var ids []int
		last := make([]int, batch)
		runBatch := func() time.Duration {
			for _, id := range ids {
				bp.Drop(id)
			}
			ids = ids[:0]
			for i := 0; i < batch; i++ {
				id := bp.Add()
				ids = append(ids, id)
				next, _ := mathx.ArgMax(bp.Prefill(id, seedPrompt))
				last[i] = next
			}
			start := time.Now()
			for j := 0; j < decodeTokens; j++ {
				for i, row := range bp.Step(ids, last) {
					last[i], _ = mathx.ArgMax(row)
				}
			}
			return time.Since(start)
		}
		runBatch() // warm the step arena outside the timers
		d := minDuration(reps, runBatch)
		batchMetrics[fmt.Sprintf("batch%d_tok_s", batch)] = tokPerSec(batch*decodeTokens, d)
		batchMetrics[fmt.Sprintf("batch%d_step_ns", batch)] = float64(d.Nanoseconds()) / decodeTokens
	}
	batchRes := perfResult{
		Bench: "decode_batch", Shape: dshape, Reps: reps,
		Metrics: batchMetrics, UnixTime: time.Now().Unix(),
	}

	if err := writeBench(filepath.Join(dir, "BENCH_prefill.json"), prefill); err != nil {
		return err
	}
	if err := writeBench(filepath.Join(dir, "BENCH_decode.json"), decodeRes); err != nil {
		return err
	}
	if err := writeBench(filepath.Join(dir, "BENCH_decode_batch.json"), batchRes); err != nil {
		return err
	}
	fmt.Printf("prefill %d tokens: extend %.2fms (%.0f tok/s), append %.2fms (%.0f tok/s), speedup %.2fx\n",
		promptLen, ms(extend), prefill.Metrics["extend_tok_s"],
		ms(appendT), prefill.Metrics["append_tok_s"], prefill.Metrics["extend_speedup"])
	fmt.Printf("decode %d tokens: %.2fms (%.0f tok/s)\n",
		decodeTokens, ms(decode), decodeRes.Metrics["decode_tok_s"])
	for _, batch := range batches {
		fmt.Printf("decode batch %d: %.0f tok/s (%.1fµs/step)\n", batch,
			batchMetrics[fmt.Sprintf("batch%d_tok_s", batch)],
			batchMetrics[fmt.Sprintf("batch%d_step_ns", batch)]/1000)
	}
	return nil
}

// runSpeculateJSON measures end-to-end greedy generation throughput with
// and without speculative decoding (E22): a transformer trained on
// low-entropy chronicle PCFG text at the E17 serving shape (Dim 64,
// 2 layers, 4 heads, window 64), an order-3 n-gram draft model distilled
// from the trained model itself, and one sweep entry per draft depth in
// ks. The formulaic corpus puts decoding in the regime speculation is for:
// mostly-deterministic spans the drafter predicts, so whole blocks verify
// in one pass. Every speculative run is checked
// bitwise against the plain greedy output — the sweep measures a fast path,
// never a different decode. Results (tokens/s, speedup, acceptance rates,
// and per-depth acceptance-length histograms) go to BENCH_speculate.json.
func runSpeculateJSON(dir string, reps int, seed uint64, ks []int) error {
	if reps < 1 {
		return fmt.Errorf("-reps %d must be positive", reps)
	}
	if len(ks) == 0 {
		return fmt.Errorf("-speculate-k must name at least one draft depth")
	}
	lines := corpus.PCFGText(grammar.Chronicle(), 400, 12, mathx.NewRNG(seed))
	log.Printf("training the E17-shape model on %d PCFG sentences", len(lines))
	model, _, err := core.Train(lines, core.Config{
		Tokenizer: core.WordTok,
		Model: transformer.Config{
			Dim: 64, Layers: 2, Heads: 4, Window: 64,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 200, BatchSize: 4, Seed: seed,
	})
	if err != nil {
		return err
	}
	log.Print("distilling the n-gram draft model")
	drafter := lm.DistillDrafter(model, 3, 4096, seed)

	const prompt = "the royal king"
	const genTokens = 56 // prompt + budget fills most of the 64-token window
	shape := map[string]int{
		"vocab": model.Tok.VocabSize(), "dim": 64, "layers": 2,
		"heads": 4, "window": 64, "gen_tokens": genTokens,
	}
	opts := []sample.Option{sample.WithMaxTokens(genTokens), sample.WithSeed(1)}

	gen := func(extra ...sample.Option) (lm.Result, error) {
		return lm.Gen(model, prompt, append(append([]sample.Option(nil), opts...), extra...)...)
	}
	plainRes, err := gen()
	if err != nil {
		return err
	}
	plain := minDuration(reps, func() time.Duration {
		start := time.Now()
		if _, err := gen(); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	})

	metrics := map[string]float64{
		"plain_tok_s": tokPerSec(genTokens, plain),
		"plain_ns":    float64(plain.Nanoseconds()),
	}
	hists := map[string][]uint64{}
	type row struct {
		k       int
		tokS    float64
		speedup float64
		accept  float64
	}
	var rows []row
	for _, k := range ks {
		sp := &sample.Speculative{K: k, Drafter: drafter}
		spOpt := sample.WithSpeculative(sp)
		d := minDuration(reps, func() time.Duration {
			start := time.Now()
			res, err := gen(spOpt)
			elapsed := time.Since(start)
			if err != nil {
				log.Fatal(err)
			}
			if res.Text != plainRes.Text {
				log.Fatalf("k=%d: speculative output %q != plain %q", k, res.Text, plainRes.Text)
			}
			return elapsed
		})
		accept := 0.0
		if sp.Stats.Drafted > 0 {
			accept = float64(sp.Stats.Accepted) / float64(sp.Stats.Drafted)
		}
		pre := fmt.Sprintf("k%d_", k)
		metrics[pre+"tok_s"] = tokPerSec(genTokens, d)
		metrics[pre+"ns"] = float64(d.Nanoseconds())
		metrics[pre+"speedup"] = float64(plain) / float64(d)
		metrics[pre+"accept_rate"] = accept
		metrics[pre+"rounds"] = float64(sp.Stats.Rounds)
		hists[pre+"accept_hist"] = append([]uint64(nil), sp.Stats.AcceptHist[:]...)
		rows = append(rows, row{k, metrics[pre+"tok_s"], metrics[pre+"speedup"], accept})
	}

	res := perfResult{
		Bench: "speculate", Shape: shape, Reps: reps,
		Metrics: metrics, Hists: hists, UnixTime: time.Now().Unix(),
	}
	if err := writeBench(filepath.Join(dir, "BENCH_speculate.json"), res); err != nil {
		return err
	}
	fmt.Printf("plain greedy: %.2fms (%.0f tok/s)\n", ms(plain), metrics["plain_tok_s"])
	for _, r := range rows {
		fmt.Printf("speculate k=%d: %.0f tok/s, %.2fx, %.0f%% drafts accepted\n",
			r.k, r.tokS, r.speedup, 100*r.accept)
	}
	return nil
}

// minDuration reports the fastest of reps runs — the standard noise-robust
// point estimate for micro-measurements. f times its own measured section
// and returns the duration, so per-rep setup (predictor construction, seed
// prefill) stays outside the clock.
func minDuration(reps int, f func() time.Duration) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		if d := f(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func tokPerSec(tokens int, d time.Duration) float64 {
	return float64(tokens) / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// writeBench writes the result atomically: marshal to a temp file in the
// target directory, then rename over the destination. A crash or a
// concurrent reader (CI artifact collection, result-diffing tooling) never
// observes a truncated or half-written BENCH_*.json.
func writeBench(path string, v perfResult) error {
	v.GOMAXPROCS, v.GoVersion = runtime.GOMAXPROCS(0), runtime.Version()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
