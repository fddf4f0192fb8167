package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"crossbfs/internal/serve"
	"crossbfs/internal/xmath"
)

// flightTraversal is one traversal reconstructed from bfsd's
// /debug/flight dump. Times are microseconds from the dump's epoch.
type flightTraversal struct {
	root    int32
	start   float64
	durUS   float64
	edges   int64
	levels  []flightLevel
	started bool
	ended   bool
}

type flightLevel struct {
	dir           string
	start, dur    float64
	scans, tdEdge int64
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// fetchFlight downloads the flight recorder and returns its complete
// traversals ordered by start.
func fetchFlight(addr string) ([]*flightTraversal, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/flight")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/flight: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/debug/flight: %w", err)
	}
	return parseFlight(doc.TraceEvents), nil
}

func num(args map[string]any, k string) float64 {
	v, _ := args[k].(float64)
	return v
}

// parseFlight groups the host-lane events of a flight dump by
// traversal lane.
func parseFlight(evs []traceEvent) []*flightTraversal {
	byTid := map[int]*flightTraversal{}
	for _, ev := range evs {
		if ev.Pid != 1 || ev.Tid <= 0 || ev.Ph == "M" {
			continue
		}
		t := byTid[ev.Tid]
		if t == nil {
			t = &flightTraversal{}
			byTid[ev.Tid] = t
		}
		switch {
		case ev.Name == "traversal start":
			t.root, t.start, t.started = int32(num(ev.Args, "root")), ev.TS, true
		case ev.Cat == "level" && ev.Ph == "X":
			dir, _ := ev.Args["dir"].(string)
			t.levels = append(t.levels, flightLevel{
				dir: dir, start: ev.TS, dur: ev.Dur,
				scans: int64(num(ev.Args, "scans")), tdEdge: int64(num(ev.Args, "frontierEdges")),
			})
		case ev.Name == "traversal end":
			_, failed := ev.Args["error"]
			t.durUS, t.edges, t.ended = num(ev.Args, "wallSeconds")*1e6, int64(num(ev.Args, "traversedEdges")), !failed
		}
	}
	out := make([]*flightTraversal, 0, len(byTid))
	for _, t := range byTid {
		if t.started && t.ended {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// matchFlight assigns flight traversals to the phase's successful
// requests. The dump carries roots but not request ids, so each
// request, taken in send order, claims the earliest unclaimed
// traversal of each of its roots. Two requests can only swap when they
// share a root and overlap in time, and then their traversals are the
// same work.
func matchFlight(p *phase, flight []*flightTraversal) map[int][]*flightTraversal {
	queues := map[int32][]*flightTraversal{}
	for _, t := range flight {
		queues[t.root] = append(queues[t.root], t)
	}
	var order []int
	for i, a := range p.ans {
		if a.err == nil && a.status == http.StatusOK {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return p.ans[order[x]].sent.Before(p.ans[order[y]].sent) })
	matched := map[int][]*flightTraversal{}
	for _, i := range order {
		srcs := p.qs[i].q.Sources
		if p.qs[i].q.Kind == serve.KindReach {
			srcs = []int32{p.qs[i].q.Source}
		}
		var ts []*flightTraversal
		for _, s := range srcs {
			if q := queues[s]; len(q) > 0 {
				ts, queues[s] = append(ts, q[0]), q[1:]
			}
		}
		if len(ts) == len(srcs) {
			matched[i] = ts
		}
	}
	return matched
}

// serveSpans builds the traced phase's span tree: a client span per
// timed request (scheduled send to last byte), a serve child of the
// response's elapsed_us ending with it, and the request's traversals
// from the flight dump as grandchildren, end-aligned inside the serve
// span, with their levels below them. It derives the http, serve and
// bfs metrics from those spans.
func serveSpans(o *outcome, log *spanLog, p *phase, flight []*flightTraversal) {
	matched := matchFlight(p, flight)
	us := func(x float64) time.Duration { return time.Duration(x * 1e3) }
	oltp := &lane{name: "bfs"}
	var overhead, nontrav []float64
	for k, s := range p.samples {
		i := p.warm + k
		ts, ok := matched[i]
		a, q := p.ans[i], p.qs[i]
		if !ok {
			continue
		}
		class, bfsName := "oltp", "bfs"
		if q.class == classOLAP {
			class, bfsName = "olap", "bfs.multi"
		}
		group := uint64(i + 1)
		due, done := p.start.Add(s.Due), p.start.Add(s.Done)
		elapsed := time.Duration(a.resp.ElapsedUS) * time.Microsecond
		c := log.add(group, "client."+class, due, done, -1)
		sv := log.add(group, "serve."+class, done.Add(-elapsed), done, c)
		first, last := ts[0].start, ts[len(ts)-1].start+ts[len(ts)-1].durUS
		base := done.Add(-us(last - first))
		for _, t := range ts {
			at := func(x float64) time.Time { return base.Add(us(x - first)) }
			b := log.add(group, bfsName, at(t.start), at(t.start+t.durUS), sv)
			for _, lv := range t.levels {
				log.add(group, bfsName+".level."+lv.dir, at(lv.start), at(lv.start+lv.dur), b)
			}
		}
		if q.class != classOLTP {
			continue
		}
		t := ts[0]
		ms := t.durUS / 1e3
		overhead = append(overhead, float64(s.latency()-elapsed)/1e6)
		nontrav = append(nontrav, float64(elapsed)/1e6-ms)
		oltp.ms = append(oltp.ms, ms)
		if ms > 0 {
			oltp.mteps = append(oltp.mteps, float64(t.edges)/ms/1e3)
		}
		oltp.edges += t.edges
		oltp.levels += int64(len(t.levels))
		for _, lv := range t.levels {
			if lv.dir == "BU" {
				oltp.buLevels++
				oltp.buScans += lv.scans
				oltp.scans += lv.scans
			} else if lv.tdEdge > 0 {
				oltp.tdEdges += lv.tdEdge
			}
		}
	}
	n := len(oltp.ms)
	o.set("http.oltp_overhead_ms_p50", xmath.Median(overhead), len(overhead))
	o.set("serve.oltp_nontraversal_ms_p50", xmath.Median(nontrav), len(nontrav))
	o.set("bfs.oltp_traversal_ms_p50", xmath.Median(oltp.ms), n)
	if n > 0 {
		o.set("bfs.oltp_levels_mean", float64(oltp.levels)/float64(n), n)
	}
	o.set("bfs.mteps_hmean", xmath.HarmonicMean(oltp.mteps), len(oltp.mteps))
	if oltp.edges > 0 {
		o.set("bfs.scans_per_edge", float64(oltp.scans)/float64(oltp.edges), n)
	}
	levelMetrics(o, log, oltp)
}
