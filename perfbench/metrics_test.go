package main

import (
	"testing"
	"time"
)

func TestGoodQuartile(t *testing.T) {
	if got := goodQuartile(seq(15), true); got != 4 {
		t.Fatalf("lower-is-better quartile of 1..15 = %v, want 4", got)
	}
	if got := goodQuartile(seq(15), false); got != 12 {
		t.Fatalf("higher-is-better quartile of 1..15 = %v, want 12", got)
	}
	if got := goodQuartile(nil, true); got != 0 {
		t.Fatalf("empty: %v", got)
	}
}

// TestMeasureBlocks checks that requests fall into the block they were sent
// in, that tokens count in the block they arrived in, and that nothing after
// the window counts.
func TestMeasureBlocks(t *testing.T) {
	begin := time.Unix(1000, 0)
	p := &pass{begin: begin, window: blockCount * time.Second}
	req := request{Tokens: 2}
	at := func(start time.Time, ttft time.Duration) outcome {
		o := outcome{req: req, start: start, text: "ab", final: "ab", events: 2}
		o.first = start.Add(ttft)
		o.end = o.first.Add(time.Millisecond)
		o.gaps = []time.Duration{time.Millisecond}
		return o
	}
	for k := range blockCount {
		// Block k's only request waits k+1 ms for its first token.
		start := begin.Add(time.Duration(k)*time.Second + 100*time.Millisecond)
		p.outs = append(p.outs, at(start, time.Duration(k+1)*time.Millisecond))
	}
	// Sent after the window: neither its latency nor its tokens count.
	p.outs = append(p.outs, at(begin.Add(p.window), time.Hour))

	m := measure(p)
	if got, want := m["ttft_mean_ms"].value, float64(blockCount/4+1); got != want {
		t.Fatalf("ttft_mean_ms = %v, want %v", got, want)
	}
	if got := m["tok_s"].value; got != 2 {
		t.Fatalf("tok_s = %v, want 2", got)
	}
	if q := m["ttft_p90_ms"].q; q == nil || q.N != 1 {
		t.Fatalf("ttft_p90_ms per-block sample count: %+v, want 1", q)
	}
}
