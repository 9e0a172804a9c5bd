package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/llm"
)

// outcome is what the client saw of one request.
type outcome struct {
	req    request
	text   string    // concatenated token pieces, in arrival order
	final  string    // the completion the server reported when it finished
	events int       // token events received
	start  time.Time // what latency is timed from: send time, or due time in the open loop
	first  time.Time
	end    time.Time
	gaps   []time.Duration
	err    error
}

func (o *outcome) ttft() time.Duration { return o.first.Sub(o.start) }
func (o *outcome) e2e() time.Duration  { return o.end.Sub(o.start) }

// tpot is the request's mean gap between consecutive tokens. Unlike a
// single gap it does not depend on how a relay batches frames into reads.
func (o *outcome) tpot() time.Duration { return o.end.Sub(o.first) / time.Duration(o.events-1) }

// token records one token event arriving now.
func (o *outcome) token(piece string) {
	now := time.Now()
	if o.events == 0 {
		o.first = now
	} else {
		o.gaps = append(o.gaps, now.Sub(o.end))
	}
	o.end = now
	o.events++
	o.text += piece
}

// sseFrame is any frame of the /v1/stream protocol: a token event, the
// terminal done frame, or an in-band error.
type sseFrame struct {
	Index      *int   `json:"index"`
	Text       string `json:"text"`
	Done       bool   `json:"done"`
	Completion string `json:"completion"`
	Error      string `json:"error"`
}

// streamHTTP sends r to base's /v1/stream and reads the SSE stream to its
// end. start is the time latency is measured from.
func streamHTTP(client *http.Client, base string, r request, start time.Time) outcome {
	o := outcome{req: r, start: start}
	body := httpapi.GenRequest{Prompt: r.Prompt, Tokens: r.Tokens, Seed: r.ID, Session: r.Session}
	if r.TopP {
		body.Strategy, body.TopP, body.Temperature = "topp", 0.9, 0.8
	}
	buf, err := json.Marshal(body)
	if err != nil {
		o.err = err
		return o
	}
	resp, err := client.Post(base+"/v1/stream", "application/json", bytes.NewReader(buf))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return o
	}
	br := bufio.NewReaderSize(resp.Body, 16<<10)
	done := false
	for !done {
		line, err := br.ReadSlice('\n')
		if err != nil {
			o.err = fmt.Errorf("stream ended before its done frame: %w", err)
			return o
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		var f sseFrame
		if err := json.Unmarshal(data, &f); err != nil {
			o.err = fmt.Errorf("bad frame %q: %w", data, err)
			return o
		}
		switch {
		case f.Error != "":
			o.err = errors.New(f.Error)
			return o
		case f.Done:
			o.final, done = f.Completion, true
		case f.Index != nil:
			o.token(f.Text)
		}
	}
	return o
}

// streamLocal runs r through the in-process server's streaming API.
func streamLocal(srv *llm.Server, r request, start time.Time) outcome {
	o := outcome{req: r, start: start}
	res, err := srv.Stream(context.Background(), llm.NewGenRequest(r.Prompt, r.options()...),
		func(t llm.Token) error {
			o.token(t.Text)
			return nil
		})
	o.final, o.err = res.Text, err
	return o
}

// closedLoop runs callers goroutines that each send their next request as
// soon as the previous one completes, until deadline. next hands out the
// request stream in order.
func closedLoop(callers int, deadline time.Time, next func() request, do func(request) outcome) []outcome {
	per := make([][]outcome, callers)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], do(next()))
			}
		}()
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// openLoop sends each scheduled request at its due time, without waiting
// for earlier ones, and waits for all of them. Latency is timed from the
// due time, so a late generator is charged to the request; lags reports
// how late each send was.
func openLoop(sched []request, start time.Time, do func(r request, due time.Time) outcome) (outs []outcome, lags []time.Duration) {
	outs = make([]outcome, len(sched))
	lags = make([]time.Duration, len(sched))
	var wg sync.WaitGroup
	for i, r := range sched {
		due := start.Add(r.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = do(r, due)
		}()
	}
	wg.Wait()
	return outs, lags
}
