package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// perLayer computes the per-layer metrics of a traced run: engine and
// tokenizer probes, serve counters from the untraced pass, and HTTP and
// router figures from the traced pass's spans.
func perLayer(w *workload, sys *system, tr *tracer, u, t *pass, seed uint64) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	for k, v := range probeTransformer(sys.model, seed) {
		unit := "us"
		if strings.Contains(k, "allocs") {
			unit = "count"
		}
		put(k, unit, v)
	}
	put("tokenizer.encode_us.doc", "us", probeTokenizer(sys.model, seed))

	tokens := 0
	for _, o := range u.outs {
		tokens += o.events
	}
	chunks := uint64(0)
	for _, n := range u.serve.PrefillChunkHist {
		chunks += n
	}
	put("serve.mean_batch", "rows", float64(u.serve.StepRows)/float64(max(u.serve.Steps, 1)))
	put("serve.prefill_chunks", "count", float64(chunks)/float64(max(len(u.outs), 1)))
	put("serve.mallocs_per_token", "count", float64(u.mallocs)/float64(max(tokens, 1)))
	put("serve.queued_mean", "count", u.queued)

	// Tracing overhead: the traced pass against the untraced one.
	ue, te := measure(u), measure(t)
	uTTFT, tTTFT := ue["ttft_p50_ms"].value, te["ttft_p50_ms"].value
	uTok, tTok := ue["tok_s"].value, te["tok_s"].value
	overhead := max(tTTFT/uTTFT-1, 1-tTok/uTok)
	put("bench.trace_overhead_frac", "frac", overhead)
	fmt.Printf("trace overhead: ttft_p50 %.4f -> %.4f ms, tok_s %.1f -> %.1f (frac %.4f)\n",
		uTTFT, tTTFT, uTok, tTok, overhead)

	for _, o := range t.outs {
		s := span{Name: "client", ID: o.req.ID, Start: tr.at(o.start), End: tr.at(o.end), First: -1, Tokens: o.events}
		if o.events > 0 {
			s.First = tr.at(o.first)
		}
		tr.add(s)
	}
	for _, k := range []string{
		"httpapi.first_frame_ms.p50", "httpapi.first_frame_ms.p90", "httpapi.span_ms.p50",
		"httpapi.flushes_per_token", "httpapi.bytes_per_token",
		"router.added_first_byte_ms.p50", "router.added_first_byte_ms.p90", "router.self_ms.p50",
		"router.writes_per_token", "router.backend_share_max", "router.affinity_frac",
		"router.retries", "router.shed", "bench.client_unattributed_ms.p50",
	} {
		put(k, layerUnit(k), 0) // the HTTP layers are not on this workload's path
	}
	if w.router {
		if err := httpLayers(out, tr, t); err != nil {
			return nil, err
		}
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("per-layer (%s):\n", w.name)
	for _, k := range names {
		fmt.Printf("  %-36s %12.4f %s\n", k, out[k].Value, out[k].Unit)
	}
	return out, nil
}

func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_max"):
		return "frac"
	case strings.HasSuffix(name, "bytes_per_token"):
		return "B"
	}
	return "count"
}

// httpLayers fills the httpapi and router metrics from the traced pass and
// prints the TTFT attribution, unattributed part included.
func httpLayers(out map[string]metric, tr *tracer, t *pass) error {
	parts, err := attribute(tr.spans)
	if err != nil {
		return fmt.Errorf("trace attribution: %w", err)
	}
	var ff, added, self, unattr, wspan []float64
	var sum [4]time.Duration
	for _, p := range parts {
		if d := p.Unattributed + p.RouterAdded + p.FirstFrame - p.TTFT; d != 0 {
			return fmt.Errorf("request %d: TTFT parts do not reconcile (off by %v)", p.ID, d)
		}
		ff = append(ff, ms(p.FirstFrame))
		added = append(added, ms(p.RouterAdded))
		self = append(self, ms(p.RouterSelf))
		unattr = append(unattr, ms(p.Unattributed))
		wspan = append(wspan, ms(p.WorkerSpan))
		sum[0] += p.TTFT
		sum[1] += p.Unattributed
		sum[2] += p.RouterAdded
		sum[3] += p.FirstFrame
	}
	n := time.Duration(max(len(parts), 1))
	fmt.Printf("ttft attribution, mean over %d requests: client %.4f ms = client_unattributed %.4f + router_added %.4f + httpapi_first_frame %.4f\n",
		len(parts), ms(sum[0]/n), ms(sum[1]/n), ms(sum[2]/n), ms(sum[3]/n))
	fmt.Printf("worker (httpapi + serve + transformer, not split): span p50 %.4f ms\n", median(append([]float64(nil), wspan...)))

	var writes, flushes, bytes, tokens int
	for _, s := range tr.spans {
		switch s.Name {
		case "worker":
			flushes += s.Flushes
			bytes += s.Bytes
		case "router":
			writes += s.Writes
		case "client":
			tokens += s.Tokens
		}
	}
	tokens = max(tokens, 1)
	put := func(name string, v float64) { out[name] = metric{v, layerUnit(name)} }
	put("httpapi.first_frame_ms.p50", percentile(ff, 50).Value)
	put("httpapi.first_frame_ms.p90", percentile(ff, 90).Value)
	put("httpapi.span_ms.p50", median(wspan))
	put("httpapi.flushes_per_token", float64(flushes)/float64(tokens))
	put("httpapi.bytes_per_token", float64(bytes)/float64(tokens))
	put("router.added_first_byte_ms.p50", percentile(added, 50).Value)
	put("router.added_first_byte_ms.p90", percentile(added, 90).Value)
	put("router.self_ms.p50", median(self))
	put("router.writes_per_token", float64(writes)/float64(tokens))
	put("bench.client_unattributed_ms.p50", median(unattr))
	put("router.retries", float64(t.router.Retries))
	put("router.shed", float64(t.router.Shed))

	var total, top uint64
	for _, n := range t.backends {
		total += n
		top = max(top, n)
	}
	put("router.backend_share_max", float64(top)/float64(max(total, 1)))

	// Affinity: keyed requests placed on the worker that served the
	// session's previous request, in client send order.
	backendOf := map[uint64]int{}
	for _, p := range parts {
		backendOf[p.ID] = p.Backend
	}
	keyed := make([]outcome, 0, len(t.outs))
	for _, o := range t.outs {
		if o.req.Session != "" && o.err == nil {
			keyed = append(keyed, o)
		}
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].start.Before(keyed[j].start) })
	last := map[string]int{}
	same, repeat := 0, 0
	for _, o := range keyed {
		b := backendOf[o.req.ID]
		if prev, ok := last[o.req.Session]; ok {
			repeat++
			if prev == b {
				same++
			}
		}
		last[o.req.Session] = b
	}
	put("router.affinity_frac", float64(same)/float64(max(repeat, 1)))
	return nil
}
