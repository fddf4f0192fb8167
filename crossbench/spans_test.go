package main

import (
	"testing"
	"time"
)

func TestSelfTimeOnNestedSpans(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	l := newSpanLog(epoch)
	root := l.add(1, "client", at(0), at(100), -1)
	srv := l.add(1, "serve", at(10), at(90), root)
	trav := l.add(1, "bfs", at(20), at(80), srv)
	l.add(1, "level", at(20), at(30), trav)
	l.add(1, "level", at(30), at(50), trav)
	// Two concurrent children overlapping each other count once.
	l.add(1, "exchange", at(60), at(70), trav)
	l.add(1, "exchange", at(65), at(75), trav)
	// A child reaching past its parent is clipped to it.
	l.add(2, "outer", at(0), at(10), -1)
	l.add(2, "inner", at(5), at(20), len(l.spans)-1)

	self := l.selfTimes()
	want := []int64{20, 20, 15, 10, 20, 10, 10, 5, 15}
	for i, w := range want {
		if got := self[i] / int64(time.Millisecond); got != w {
			t.Errorf("span %d (%s): self %d ms, want %d", i, l.spans[i].Name, got, w)
		}
	}
	by := l.selfByName()
	if by["level"] != int64(30*time.Millisecond) || by["exchange"] != int64(20*time.Millisecond) {
		t.Errorf("selfByName = %v", by)
	}
	if got := l.unionByName("exchange"); got != int64(15*time.Millisecond) {
		t.Errorf("unionByName(exchange) = %v, want 15ms", time.Duration(got))
	}
}
