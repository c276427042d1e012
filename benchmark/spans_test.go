package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "rep", StartMS: 0, EndMS: 100},
		{ID: 2, Parent: 1, Name: "ingest", StartMS: 0, EndMS: 10},
		{ID: 3, Parent: 1, Name: "detect", StartMS: 10, EndMS: 90},
		{ID: 4, Name: "rep", StartMS: 100, EndMS: 150},
		{ID: 5, Parent: 4, Name: "detect", StartMS: 100, EndMS: 140},
	}}
	want := map[string]time.Duration{
		"rep":    20 * time.Millisecond,
		"ingest": 10 * time.Millisecond,
		"detect": 120 * time.Millisecond,
	}
	got := tr.selfTimes()
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
}
