package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// request or root share a group id; parent indexes the span that
// caused this one (-1 for a group's root span).
type span struct {
	Group  uint64 `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps a run's spans in memory until the run ends. It is not
// safe for concurrent use.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// add records [start, end) under parent and returns the span's index.
func (l *spanLog) add(group uint64, name string, start, end time.Time, parent int) int {
	l.spans = append(l.spans, span{
		Group: group, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
		Parent: parent,
	})
	return len(l.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Overlapping children (concurrent
// ranks) are merged first, so covered time is counted once.
func (l *spanLog) selfTimes() []int64 {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] = s.dur() - covered(s, l.spans, children[i])
	}
	return self
}

// covered measures the union of the child intervals clipped to s.
func covered(s span, all []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].Start, s.Start), min(all[k].End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func (l *spanLog) selfByName() map[string]int64 {
	out := map[string]int64{}
	for i, st := range l.selfTimes() {
		out[l.spans[i].Name] += st
	}
	return out
}

// unionByName returns, summed over groups, the time covered by at
// least one span of the given name (concurrent ranks count once).
func (l *spanLog) unionByName(name string) int64 {
	byGroup := map[uint64][]int{}
	for i, s := range l.spans {
		if s.Name == name {
			byGroup[s.Group] = append(byGroup[s.Group], i)
		}
	}
	var total int64
	all := span{Start: math.MinInt64, End: math.MaxInt64}
	for _, idx := range byGroup {
		total += covered(all, l.spans, idx)
	}
	return total
}

// write dumps the spans as one JSON document.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{l.epoch, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
