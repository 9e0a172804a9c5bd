package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRequestsSeedDeterminism(t *testing.T) {
	for _, w := range []string{"chat_router", "offline_batch"} {
		a, b, c := newPool(1, w, true), newPool(1, w, true), newPool(2, w, true)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different request pools", w)
		}
		if reflect.DeepEqual(a.reqs, c.reqs) {
			t.Fatalf("%s: seeds 1 and 2 gave identical request pools", w)
		}
	}
	a, b, c := openSchedule(1, 30, 5*time.Second), openSchedule(1, 30, 5*time.Second), openSchedule(2, 30, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different open-loop schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave identical open-loop schedules")
	}
}

func TestRequestShapes(t *testing.T) {
	p := newPool(3, "chat_router", true)
	keyed := 0
	for i := range 3 * poolSize {
		r := p.at(i)
		if n := len(strings.Fields(r.Prompt)); n < 8 || n > 32 || r.Tokens != chatTokens {
			t.Fatalf("request %d: %d prompt words, %d tokens", i, n, r.Tokens)
		}
		if r.ID != p.base+uint64(i) {
			t.Fatalf("request %d: id %d not unique in the stream", i, r.ID)
		}
		if r.Session != "" {
			keyed++
		}
	}
	if keyed < poolSize || keyed > 2*poolSize {
		t.Fatalf("%d of %d requests keyed, want about half", keyed, 3*poolSize)
	}
	sched := openSchedule(3, 30, 20*time.Second)
	docs := 0
	for i, r := range sched {
		if i > 0 && r.Due < sched[i-1].Due {
			t.Fatal("schedule not in due order")
		}
		n := len(strings.Fields(r.Prompt))
		switch {
		case r.Doc && (n < 150 || n > 200 || r.Tokens != docTokens):
			t.Fatalf("doc request %d: %d words, %d tokens", i, n, r.Tokens)
		case !r.Doc && (n < 8 || n > 32 || r.Tokens != chatTokens):
			t.Fatalf("chat request %d: %d words, %d tokens", i, n, r.Tokens)
		}
		if r.Doc {
			docs++
		}
	}
	if len(sched) != 600 || docs != 120 {
		t.Fatalf("%d arrivals, %d documents in 20s at 30/s; want 600 and 120", len(sched), docs)
	}
	if last := sched[len(sched)-1].Due; last >= 20*time.Second {
		t.Fatalf("arrival due at %v, outside the window", last)
	}
}
