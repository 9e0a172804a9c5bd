// Command perfbench is the repository's serving benchmark. It runs the
// fixed transformer model through one of three workloads, checks every
// output, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1600, "failed": 0, "metrics": {"ttft_mean_ms": {"value": 8.67, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// makes an untraced and a traced pass and reports per-layer metrics
// instead. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload chat_router --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lm"
	"repro/internal/router"
	"repro/internal/serve"
)

// workload is one traffic mix against the system under test.
type workload struct {
	name    string
	router  bool    // through an llm-router in front of HTTP worker stacks
	callers int     // closed-loop callers; 0 selects the open loop
	rate    float64 // open-loop arrivals per second
}

// workloads lists every workload the command runs. BENCHMARK.json gates
// chat_router and offline_batch only: mixed_open's medians spread 25–28%
// (its p90 TTFT 47%) across ten seeds while the shared host was contended,
// past any useful regression bound. It stays runnable for the open-loop
// figures it prints.
func workloads() []*workload {
	return []*workload{
		{name: "chat_router", router: true, callers: runtime.NumCPU()},
		{name: "offline_batch", callers: 16},
		{name: "mixed_open", rate: 10},
	}
}

const (
	setupReps    = 7                     // set-ups per run; setup_s is their median
	oracleSample = 24                    // requests per run checked against the unbatched oracle
	lagBound     = 10 * time.Millisecond // open-loop generator lag (p99) beyond which a run is invalid
	spanDir      = ".bench_build/spans"  // where traced runs write their spans
)

// SLO limits for mixed_open's slo_ok_frac.
const (
	chatTTFTLimit = 25 * time.Millisecond
	chatGapLimit  = 15 * time.Millisecond
	docTTFTLimit  = 150 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: chat_router, offline_batch or mixed_open")
	seed := flag.Uint64("seed", 1, "workload seed: model weights, prompts, schedule and oracle sample")
	seconds := flag.Int("seconds", 10, "measured window per pass, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// fingerprint names the host the figures were taken on.
func fingerprint() string {
	avx, avx512f := simdFlags()
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s avx=%v avx512f=%v",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), avx, avx512f)
}

// cpuTime is the user plus system CPU time the process has used. Unlike
// wall time it does not grow while a shared host runs someone else on this
// machine's vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newClient is the load generator's HTTP client: at most nproc
// connections, kept alive between requests.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

func run(w *workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	fmt.Printf("host: %s\n", fingerprint())
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v\n", w.name, seed, window.Seconds(), traced)
	client := newClient()
	defer client.CloseIdleConnections()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var sys *system
	for i := range setupReps {
		t0 := time.Now()
		s, err := start(w, seed, tr, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	setup := median(append([]float64(nil), setups...))
	fmt.Printf("setup_s: %v (median of %d set-ups)\n", setups, setupReps)

	// A traced run splits its window between an untraced and a traced
	// pass over the same requests, so it takes as long as an untraced run
	// and the two passes measure the tracing overhead.
	if traced {
		window /= 2
	}
	passes := []*pass{runPass(w, sys, client, seed, window)}
	if traced {
		tr.on.Store(true)
		passes = append(passes, runPass(w, sys, client, seed, window))
		tr.on.Store(false)
		tr.wait()
	}
	for _, p := range passes {
		if lag := p.lagP99(); lag > lagBound {
			return nil, fmt.Errorf("invalid run: open-loop generator lag p99 %.3f ms exceeds the %v bound", ms(lag), lagBound)
		}
	}

	var all []outcome
	for _, p := range passes {
		all = append(all, p.outs...)
	}
	c := check(sys.model, seed, all)
	res := &result{Correct: c.correct(), Attempted: len(all), Failed: c.failed, Metrics: map[string]metric{}}
	fmt.Printf("correctness: %d sent, %d failed (fail_frac %.4f), %d short streams, %d pieces/completion mismatches, oracle mismatches %d of %d checked\n",
		len(all), c.failed, float64(c.failed)/float64(len(all)), c.short, c.split, c.oracle, c.checked)

	e2e := endToEnd(w, passes[0], setup)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := perLayer(w, sys, tr, passes[0], passes[1], seed)
	if err != nil {
		return nil, err
	}
	path, err := tr.write(spanDir, w.name, seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	res.Metrics = layers
	return res, nil
}

// pass is one measured window.
type pass struct {
	outs     []outcome
	lags     []time.Duration // open loop only
	begin    time.Time       // window start
	window   time.Duration   // requests are sent for this long after begin
	serve    serve.Stats     // counter deltas over the window, summed over loops
	router   router.Stats
	backends map[string]uint64 // per-backend request deltas at the router
	mallocs  uint64
	cpu      time.Duration // process user+system CPU time over the window
	heapPeak uint64        // peak HeapSys-HeapReleased during the window
	queued   float64       // mean of the sampled Queued gauge
}

func (p *pass) lagP99() time.Duration {
	if len(p.lags) == 0 {
		return 0
	}
	xs := make([]float64, len(p.lags))
	for i, l := range p.lags {
		xs[i] = float64(l)
	}
	return time.Duration(percentile(xs, 99).Value)
}

// runPass drives one window of the workload against sys.
func runPass(w *workload, sys *system, client *http.Client, seed uint64, window time.Duration) *pass {
	p := &pass{window: window}
	var next func() request
	var sched []request
	if w.callers > 0 {
		pool := newPool(seed, w.name, w.router)
		var n atomic.Int64
		next = func() request { return pool.at(int(n.Add(1) - 1)) }
	} else {
		sched = openSchedule(seed, w.rate, window)
	}
	runtime.GC()
	debug.FreeOSMemory()
	st0 := sys.stats()
	var rt0 router.Stats
	if sys.router != nil {
		rt0 = sys.router.Stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.sample(sys, stop)
	}()
	p.begin = time.Now()
	deadline := p.begin.Add(window)
	switch {
	case w.router:
		p.outs = closedLoop(w.callers, deadline, next, func(r request) outcome {
			return streamHTTP(client, sys.front, r, time.Now())
		})
	case w.callers > 0:
		p.outs = closedLoop(w.callers, deadline, next, func(r request) outcome {
			return streamLocal(sys.srv, r, time.Now())
		})
	default:
		p.outs, p.lags = openLoop(sched, p.begin, func(r request, due time.Time) outcome {
			return streamLocal(sys.srv, r, due)
		})
	}
	close(stop)
	wg.Wait()

	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	st1 := sys.stats()
	p.serve = serve.Stats{Steps: st1.Steps - st0.Steps, StepRows: st1.StepRows - st0.StepRows}
	for i := range st1.PrefillChunkHist {
		p.serve.PrefillChunkHist[i] = st1.PrefillChunkHist[i] - st0.PrefillChunkHist[i]
	}
	if sys.router != nil {
		rt1 := sys.router.Stats()
		p.router = router.Stats{Retries: rt1.Retries - rt0.Retries, Shed: rt1.Shed - rt0.Shed}
		p.backends = map[string]uint64{}
		for _, b := range rt1.Backends {
			p.backends[b.Name] += b.Requests
		}
		for _, b := range rt0.Backends {
			p.backends[b.Name] -= b.Requests
		}
	}
	return p
}

// sample records the peak heap every 50 ms and the serve Queued gauge
// every 2 ms, until stop closes.
func (p *pass) sample(sys *system, stop <-chan struct{}) {
	heapTick := time.NewTicker(50 * time.Millisecond)
	defer heapTick.Stop()
	qTick := time.NewTicker(2 * time.Millisecond)
	defer qTick.Stop()
	var ms runtime.MemStats
	readHeap := func() {
		runtime.ReadMemStats(&ms)
		p.heapPeak = max(p.heapPeak, ms.HeapSys-ms.HeapReleased)
	}
	readHeap()
	var qSum, qN int
	for {
		select {
		case <-stop:
			readHeap()
			if qN > 0 {
				p.queued = float64(qSum) / float64(qN)
			}
			return
		case <-heapTick.C:
			readHeap()
		case <-qTick.C:
			qSum += sys.stats().Queued
			qN++
		}
	}
}

// checkResult counts what the correctness gate found.
type checkResult struct {
	failed  int // errors, sheds and in-band error frames
	short   int // successful streams with a token count other than asked
	split   int // streams whose pieces differ from the completion reported
	oracle  int // sampled requests whose text differs from lm.Gen
	checked int // oracle comparisons made
}

func (c checkResult) correct() bool { return c.short == 0 && c.split == 0 && c.oracle == 0 }

// check gates correctness: every stream must deliver exactly its tokens
// events whose pieces concatenate to the reported completion, and a seeded
// sample must match the unbatched oracle lm.Gen bitwise. The oracle runs
// after the timed window.
func check(model *core.LLM, seed uint64, outs []outcome) checkResult {
	var c checkResult
	var ok []int
	for i, o := range outs {
		switch {
		case o.err != nil:
			c.failed++
		case o.events != o.req.Tokens:
			c.short++
		case o.text != o.final:
			c.split++
		default:
			ok = append(ok, i)
		}
	}
	perm := stream(seed, "oracle").Perm(len(ok))
	for _, k := range perm[:min(oracleSample, len(perm))] {
		o := outs[ok[k]]
		want, err := lm.Gen(model, o.req.Prompt, o.req.options()...)
		c.checked++
		if err != nil || want.Text != o.text {
			c.oracle++
		}
	}
	return c
}
