package main

import (
	"fmt"
	"sort"
	"time"
)

// gated lists the end-to-end metrics every workload reports in its result,
// in print order. The figures in printed are shown for every workload but
// not reported, because their run-to-run spread on a shared 2-vCPU host is
// wider than a useful regression bound on some workload:
//
//   - ttft_p50_ms on chat_router: a request reaching a worker that is already
//     decoding the other caller's stream gets its first token in about 3 ms,
//     one reaching an idle worker in about 15 ms, and the two are near evenly
//     mixed. The median sits between the modes and jumps as the mix moves;
//     the mean, which is reported, moves in proportion.
//   - itl_p99_ms on mixed_open, and the p90s of per-request aggregates.
//   - cpu_us_per_tok: CPU time per token follows the host's contention and,
//     on chat_router, how the two callers are placed.
var (
	gated   = []string{"ttft_mean_ms", "ttft_p90_ms", "tpot_p50_ms", "e2e_p50_ms", "tok_s", "heap_mb", "setup_s"}
	printed = []string{"ttft_p50_ms", "tpot_p90_ms", "itl_p99_ms", "e2e_p90_ms", "cpu_us_per_tok"}
)

// e2eMetric is one end-to-end metric with the percentile it was taken at.
type e2eMetric struct {
	value float64
	unit  string
	q     *pct // nil for rates and scalars
}

// blockCount is the number of equal blocks a pass's window is cut into.
// Every end-to-end latency and rate is taken per block and reported as the
// first quartile of the block values counted from the better end (see
// goodQuartile). A slow stretch of a shared host that covers fewer than
// three quarters of the blocks then leaves the figure where it was, where
// a figure over the whole window, a tail above all, would follow it.
const blockCount = 15

// goodQuartile is the block value a quarter of the way from the best block
// to the worst: the lower quartile of vals when lower is better, the upper
// one otherwise. vals is sorted in place; an empty slice gives 0.
//
// It is not the median because a shared host's contention reaches most
// blocks of a run in short bursts. On a 2-vCPU Xeon host shared with two
// bursty CPU hogs, five seeds of offline_batch spread ttft_p90_ms by 11%
// over the whole window, 14% as the median over blocks and 8% as this
// quartile; the means and medians spread 7-9% either way. A change that slows the program slows every block, so
// it still moves this quartile as far as the median.
func goodQuartile(vals []float64, lowerBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	k := len(vals) / 4
	if !lowerBetter {
		k = len(vals) - 1 - k
	}
	return vals[k]
}

// block is what a pass's requests and tokens left in one block: the
// latencies of the successful chat-shaped requests sent in it, and the
// number of tokens that arrived in it.
type block struct {
	ttft, tpot, itl, e2e []float64
	tokens               int
}

// measure computes a pass's end-to-end metrics. Each request belongs to the
// block it was sent in and each token to the block it arrived in; tokens
// that arrive after the window count in none. A latency metric is the good
// quartile over blocks of the block's mean or percentile, and tok_s is the
// good quartile over blocks of the block's tokens over the block's length.
// cpu_us_per_tok is taken over the whole pass.
func measure(p *pass) map[string]e2eMetric {
	size := p.window / blockCount
	blockOf := func(t time.Time) int {
		d := t.Sub(p.begin)
		if d < 0 || d >= size*blockCount {
			return -1
		}
		return int(d / size)
	}
	bs := make([]block, blockCount)
	tokens := 0
	for _, o := range p.outs {
		tokens += o.events
		if o.events > 0 {
			t := o.first
			if k := blockOf(t); k >= 0 {
				bs[k].tokens++
			}
			for _, g := range o.gaps {
				t = t.Add(g)
				if k := blockOf(t); k >= 0 {
					bs[k].tokens++
				}
			}
		}
		k := blockOf(o.start)
		if k < 0 || o.err != nil || o.req.Doc || o.events != o.req.Tokens {
			continue // short streams fail the correctness gate instead
		}
		b := &bs[k]
		b.ttft = append(b.ttft, ms(o.ttft()))
		b.e2e = append(b.e2e, ms(o.e2e()))
		b.tpot = append(b.tpot, ms(o.tpot()))
		for _, g := range o.gaps {
			b.itl = append(b.itl, ms(g))
		}
	}

	// overBlocks is the good quartile over the blocks that have samples of
	// what stat takes from each, with the lowest percentile used and the
	// smallest sample count among them.
	overBlocks := func(xsOf func(*block) []float64, stat func([]float64) pct) pct {
		var vals []float64
		q := pct{P: 100, N: -1}
		for i := range bs {
			xs := xsOf(&bs[i])
			if len(xs) == 0 {
				continue
			}
			r := stat(xs)
			vals = append(vals, r.Value)
			q.P = min(q.P, r.P)
			if q.N < 0 || r.N < q.N {
				q.N = r.N
			}
		}
		q.Value = goodQuartile(vals, true)
		return q
	}
	out := map[string]e2eMetric{}
	add := func(name string, xsOf func(*block) []float64, at float64) {
		q := overBlocks(xsOf, func(xs []float64) pct { return percentile(xs, at) })
		out[name] = e2eMetric{value: q.Value, unit: "ms", q: &q}
	}
	ttft := func(b *block) []float64 { return b.ttft }
	tpot := func(b *block) []float64 { return b.tpot }
	e2e := func(b *block) []float64 { return b.e2e }
	mean := func(xs []float64) pct {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return pct{Value: t / float64(len(xs)), N: len(xs)}
	}
	out["ttft_mean_ms"] = e2eMetric{value: overBlocks(ttft, mean).Value, unit: "ms"}
	add("ttft_p50_ms", ttft, 50)
	add("ttft_p90_ms", ttft, 90)
	add("tpot_p50_ms", tpot, 50)
	add("tpot_p90_ms", tpot, 90)
	add("itl_p99_ms", func(b *block) []float64 { return b.itl }, 99)
	add("e2e_p50_ms", e2e, 50)
	add("e2e_p90_ms", e2e, 90)
	rates := make([]float64, blockCount)
	for i, b := range bs {
		rates[i] = float64(b.tokens) / size.Seconds()
	}
	out["tok_s"] = e2eMetric{value: goodQuartile(rates, false), unit: "tok/s"}
	out["cpu_us_per_tok"] = e2eMetric{value: float64(p.cpu.Nanoseconds()) / 1e3 / float64(max(tokens, 1)), unit: "us/tok"}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced pass and prints
// them by name and unit, each percentile with the lowest percentile used
// and the smallest sample count over the blocks, followed by the
// workload-specific extras.
func endToEnd(w *workload, p *pass, setup float64) map[string]metric {
	m := measure(p)
	m["heap_mb"] = e2eMetric{value: float64(p.heapPeak) / (1 << 20), unit: "MB"}
	m["setup_s"] = e2eMetric{value: setup, unit: "s"}
	out := map[string]metric{}
	fmt.Printf("end-to-end (%s):\n", w.name)
	for i, k := range append(gated, printed...) {
		v := m[k]
		if i < len(gated) {
			out[k] = metric{v.value, v.unit}
		} else if i == len(gated) {
			fmt.Println("  printed, not reported:")
		}
		fmt.Printf("  %-16s %10.4f %-6s", k, v.value, v.unit)
		if v.q != nil {
			fmt.Printf(" p%.1f of n>=%d per block", v.q.P, v.q.N)
		}
		fmt.Println()
	}
	if w.rate > 0 {
		mixedExtras(p)
	}
	return out
}

// mixedExtras prints the mixed_open figures that are reported but not
// gated: the other workloads have no document requests and no SLO, and
// every gated metric must exist in every workload.
func mixedExtras(p *pass) {
	var docTTFT []float64
	ok := 0
	for _, o := range p.outs {
		if o.err != nil {
			continue
		}
		if o.req.Doc {
			docTTFT = append(docTTFT, ms(o.ttft()))
			if o.ttft() <= docTTFTLimit {
				ok++
			}
			continue
		}
		worst := time.Duration(0)
		for _, g := range o.gaps {
			worst = max(worst, g)
		}
		if o.ttft() <= chatTTFTLimit && worst <= chatGapLimit {
			ok++
		}
	}
	q := percentile(docTTFT, 90)
	fmt.Printf("  %-16s %10.4f ms     p%.1f of n=%d\n", "doc_ttft_p90_ms", q.Value, q.P, q.N)
	fmt.Printf("  %-16s %10.4f frac   %d of %d sent: chat TTFT<=%v and every gap<=%v, doc TTFT<=%v\n",
		"slo_ok_frac", float64(ok)/float64(len(p.outs)), ok, len(p.outs), chatTTFTLimit, chatGapLimit, docTTFTLimit)
	fmt.Printf("  %-16s %10.4f ms\n", "gen_lag_p99_ms", ms(p.lagP99()))
}
