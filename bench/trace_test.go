package main

import (
	"testing"
	"time"
)

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		// Overlapping segment children: the union (10–40) counts once;
		// summing durations would give 60.
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 50, End: 90}, {Start: 60, End: 70}}, 60},
		{"clipped to the parent", []span{{Start: -10, End: 10}, {Start: 95, End: 120}}, 85},
		{"covering", []span{{Start: 0, End: 100}, {Start: 40, End: 60}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerRecordsRequestTrees(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(ns int64) time.Time { return origin.Add(time.Duration(ns)) }
	tr := newTracer(origin, 2)
	if id := tr.begin(1); id != 0 {
		t.Fatalf("request 1 traced at stride 2 (id %d)", id)
	}
	root := tr.begin(2)
	seg := tr.record("pool.job", root, root, at(10), at(60))
	tr.record("core", root, seg, at(20), at(30))
	tr.record("scan.Ingest", root, root, at(40), at(80))
	tr.record("request", root, 0, at(0), at(100))
	tr.record("dropped", 0, 0, at(0), at(1)) // untraced request

	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.Req != root {
			t.Errorf("span %s carries request %d, want %d", s.Name, s.Req, root)
		}
	}
	sum := summarize(spans)
	if sum.Roots != 1 || sum.Coverage != 0.7 {
		t.Errorf("roots %d coverage %v, want 1 and 0.7", sum.Roots, sum.Coverage)
	}
	if got := sum.layer("pool.job").SelfMs; got != 40e-6 {
		t.Errorf("pool.job self %v ms, want 40 ns", got)
	}

	var off *tracer
	if off.begin(0) != 0 || off.record("x", 1, 0, at(0), at(1)) != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}
