package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested child", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 250}}, 70},
		{"outside the parent", []span{{Start: 10, End: 90}, {Start: 200, End: 300}}, 100},
		{"unsorted", []span{{Start: 170, End: 180}, {Start: 110, End: 120}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAttributeReconciles(t *testing.T) {
	spans := []span{
		// Request 1: one worker attempt.
		{Name: "client", ID: 1, Start: 0, First: 20, End: 100},
		{Name: "router", Parent: "client", ID: 1, Start: 2, First: 17, End: 98},
		{Name: "worker", Parent: "router", ID: 1, Backend: 1, Start: 5, First: 15, End: 96},
		// Request 2: the first worker failed before any frame (an error
		// body is still written), the retry served it.
		{Name: "client", ID: 2, Start: 200, First: 240, End: 300},
		{Name: "router", Parent: "client", ID: 2, Start: 201, First: 236, End: 299},
		{Name: "worker", Parent: "router", ID: 2, Backend: 0, Start: 203, First: 204, End: 206},
		{Name: "worker", Parent: "router", ID: 2, Backend: 1, Start: 220, First: 230, End: 297},
	}
	parts, err := attribute(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []ttftParts{
		{ID: 1, Backend: 1, TTFT: 20, Unattributed: 5, RouterAdded: 5, FirstFrame: 10, RouterSelf: 5, WorkerSpan: 91},
		{ID: 2, Backend: 1, TTFT: 40, Unattributed: 5, RouterAdded: 25, FirstFrame: 10, RouterSelf: 98 - 3 - 77, WorkerSpan: 77},
	}
	for i, p := range parts {
		if p != want[i] {
			t.Errorf("request %d: %+v, want %+v", p.ID, p, want[i])
		}
		if p.Unattributed+p.RouterAdded+p.FirstFrame != p.TTFT {
			t.Errorf("request %d: parts do not add up to TTFT", p.ID)
		}
	}
}

func TestAttributeRejectsIncompleteSpans(t *testing.T) {
	for name, spans := range map[string][]span{
		"missing worker": {
			{Name: "client", ID: 1, Start: 0, First: 20, End: 100},
			{Name: "router", ID: 1, Start: 2, First: 17, End: 98},
		},
		"worker after router's first byte": {
			{Name: "client", ID: 1, Start: 0, First: 20, End: 100},
			{Name: "router", ID: 1, Start: 2, First: 10, End: 98},
			{Name: "worker", ID: 1, Start: 5, First: 15, End: 96},
		},
		"no first token": {
			{Name: "client", ID: 1, Start: 0, First: -1, End: 100},
			{Name: "router", ID: 1, Start: 2, First: 17, End: 98},
			{Name: "worker", ID: 1, Start: 5, First: 15, End: 96},
		},
	} {
		if _, err := attribute(spans); err == nil {
			t.Errorf("%s: attribute accepted it", name)
		}
	}
}
