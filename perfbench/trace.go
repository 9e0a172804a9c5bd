package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one request's passage through one layer boundary. Spans exist only
// where the benchmark can see them from outside the program: at the client,
// around router.ServeHTTP, and around each worker's httpapi Handler.ServeHTTP.
// Times are offsets from the tracer's epoch.
type span struct {
	Name    string        `json:"name"`   // "client", "router" or "worker"
	Parent  string        `json:"parent"` // name of the span that caused it; "" for the client
	ID      uint64        `json:"id"`     // request id: the request's unique sampling seed
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	First   time.Duration `json:"first_ns"` // first token frame written (servers) or received (client); -1 if none
	Backend int           `json:"backend"`  // worker index, worker spans only
	Writes  int           `json:"writes"`   // Write calls on the response
	Flushes int           `json:"flushes"`  // Flush calls on the response
	Bytes   int           `json:"bytes"`    // body bytes written
	Tokens  int           `json:"tokens"`   // token events the client received (client spans)
}

// tracer keeps spans in memory until the run ends. Recording is switched
// on and off with on, so one fleet serves an untraced and a traced pass.
type tracer struct {
	epoch    time.Time
	on       atomic.Bool
	inflight sync.WaitGroup // wrapped handlers still to record their span
	mu       sync.Mutex
	spans    []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) time.Duration { return tm.Sub(t.epoch) }

// wait returns once every traced handler has recorded its span. A client
// can see a stream's last frame before the handlers that sent it return.
func (t *tracer) wait() { t.inflight.Wait() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times h's ServeHTTP for POST /v1/stream requests while tracing is
// on. The request id is read from the body's "seed" field and the body is
// restored before h sees it.
func (t *tracer) wrap(name, parent string, backend int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/stream" {
			h.ServeHTTP(w, r)
			return
		}
		t.inflight.Add(1)
		defer t.inflight.Done()
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var probe struct {
			Seed uint64 `json:"seed"`
		}
		_ = json.Unmarshal(body, &probe) // a malformed body is the handler's to reject
		tw := &traceWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r)
		s := span{Name: name, Parent: parent, ID: probe.Seed, Backend: backend,
			Start: t.at(start), End: t.at(time.Now()), First: -1,
			Writes: tw.writes, Flushes: tw.flushes, Bytes: tw.bytes}
		if !tw.firstAt.IsZero() {
			s.First = t.at(tw.firstAt)
		}
		t.add(s)
	})
}

// traceWriter counts a handler's writes and flushes and notes when the
// first body byte went out. It is an http.Flusher, as the SSE paths of
// both router and worker require.
type traceWriter struct {
	http.ResponseWriter
	firstAt                time.Time
	writes, flushes, bytes int
}

func (w *traceWriter) Write(b []byte) (int, error) {
	if w.firstAt.IsZero() {
		w.firstAt = time.Now()
	}
	w.writes++
	w.bytes += len(b)
	return w.ResponseWriter.Write(b)
}

func (w *traceWriter) Flush() {
	w.flushes++
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// write stores the spans as JSON lines in dir, named after the run.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// selfTime is the part of parent's interval that none of its children
// cover: the layer's own time.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := time.Duration(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.End - parent.Start - covered
}

// ttftParts splits one request's client-observed time to first token into
// the three parts the boundary spans can see. They add up to the client
// TTFT exactly, by construction:
//
//	unattributed = client TTFT - router time to first byte
//	routerAdded  = router time to first byte - worker time to first frame
//	firstFrame   = worker time to first frame
type ttftParts struct {
	ID                                          uint64
	Backend                                     int // worker that produced the first frame
	TTFT, Unattributed, RouterAdded, FirstFrame time.Duration
	RouterSelf                                  time.Duration // router span minus its worker spans
	WorkerSpan                                  time.Duration // the serving worker's span: httpapi, serve and transformer together
}

// attribute matches each client span with its router span and the worker
// span that produced the first frame (a retried request has more than one
// worker span), and splits the client TTFT. It fails on a request whose
// spans are missing or out of order, which would make the split a guess.
func attribute(spans []span) ([]ttftParts, error) {
	type group struct {
		client, router *span
		workers        []span
	}
	byID := map[uint64]*group{}
	get := func(id uint64) *group {
		g := byID[id]
		if g == nil {
			g = &group{}
			byID[id] = g
		}
		return g
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client":
			get(s.ID).client = s
		case "router":
			get(s.ID).router = s
		case "worker":
			g := get(s.ID)
			g.workers = append(g.workers, *s)
		}
	}
	var out []ttftParts
	for id, g := range byID {
		if g.client == nil || g.router == nil || len(g.workers) == 0 {
			return nil, fmt.Errorf("request %d: incomplete spans (client %v, router %v, workers %d)",
				id, g.client != nil, g.router != nil, len(g.workers))
		}
		c, r := *g.client, *g.router
		var w *span
		for i := range g.workers {
			if g.workers[i].First >= 0 {
				w = &g.workers[i]
			}
		}
		if c.First < 0 || r.First < 0 || w == nil {
			return nil, fmt.Errorf("request %d: no first token on every hop", id)
		}
		p := ttftParts{
			ID: id, Backend: w.Backend, TTFT: c.First - c.Start, FirstFrame: w.First - w.Start,
			RouterSelf: selfTime(r, g.workers), WorkerSpan: w.End - w.Start,
		}
		routerFB := r.First - r.Start
		p.Unattributed = p.TTFT - routerFB
		p.RouterAdded = routerFB - p.FirstFrame
		if p.Unattributed < 0 || p.RouterAdded < 0 || p.FirstFrame < 0 {
			return nil, fmt.Errorf("request %d: spans out of order: %+v", id, p)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
