package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
	"crossbfs/internal/serve"
	"crossbfs/internal/xmath"
)

// The serve-mixed traffic: an open loop at a fixed rate, 90% reach
// queries from Zipf-skewed roots to uniform targets, 10% multi queries
// over uniform roots.
const (
	serveGraphSpec = "rmat:14:16"
	serveScale     = 14
	serveEF        = 16
	serveQPS       = 150
	multiFrac      = 0.1
	multiRoots     = 8
	zipfS          = 1.1
	warmQueries    = serveQPS / 2 // half a second of traffic before each timed window
	// serveSegments is how many fresh bfsd processes share one
	// untraced run's window; setup_s is the median of their starts.
	serveSegments = 8
	// lagBoundMS marks a run invalid: past it the client, not the
	// server, was the bottleneck.
	lagBoundMS = 250
	// settle is the idle pause between the build and pricing bursts
	// and the first daemon. Without it the first 5-10 s of a run on a
	// 2-vCPU VM served multi queries up to 45% faster than the rest
	// (6.5 vs 12 ms), so the OLAP median depended on how much of the
	// window fell in that stretch; with 15 s no run showed it.
	settle = 15 * time.Second
)

const (
	classOLTP = iota
	classOLAP
)

type query struct {
	class int
	q     serve.Query
	body  []byte
}

// genQueries draws n queries from seed. Roots are drawn from the
// vertices that have edges, so every seed exercises real traversals;
// the Zipf ranks map to vertices through a seeded permutation, so the
// hot roots differ from seed to seed.
func genQueries(g *graph.CSR, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	var live []int32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			live = append(live, int32(v))
		}
	}
	perm := rng.Perm(len(live))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(live)-1))
	qs := make([]query, n)
	for i := range qs {
		if rng.Float64() < multiFrac {
			srcs := make([]int32, multiRoots)
			for k := range srcs {
				srcs[k] = live[rng.Intn(len(live))]
			}
			qs[i] = query{class: classOLAP, q: serve.Query{Graph: "g", Kind: serve.KindMulti, Sources: srcs}}
		} else {
			src := live[perm[zipf.Uint64()]]
			qs[i] = query{class: classOLTP, q: serve.Query{Graph: "g", Kind: serve.KindReach, Source: src, Target: int32(rng.Intn(g.NumVertices()))}}
		}
		qs[i].body, _ = json.Marshal(qs[i].q)
	}
	return qs
}

// daemon is one bfsd process the benchmark started.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startBfsd launches bfsd with its default flags (plus extra) and
// waits until /readyz answers 200, returning the seconds that took.
func startBfsd(bin, dir string, k int, extra ...string) (*daemon, float64, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", k))
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("bfsd-%d.log", k)))
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-graph", "g=" + serveGraphSpec, "-listen", "127.0.0.1:0", "-addrfile", addrFile}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), log: logf}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	client := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 60*time.Second {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.addr = strings.TrimSpace(string(b))
			if resp, err := client.Get("http://" + d.addr + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0).Seconds(), nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("bfsd did not become ready within 60s")
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
	d.cmd.Process = nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpuMS reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuMS() float64 {
	b, err := os.ReadFile("/proc/" + d.pid() + "/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10 // USER_HZ is 100 on Linux
}

// answer is one request's outcome.
type answer struct {
	status int
	resp   serve.Response
	err    error
	sent   time.Time
}

// phase is one open-loop drive of a daemon: a warm-up second, then
// the timed window.
type phase struct {
	qs      []query
	ans     []answer
	warm    int // the first warm queries are not timed
	samples []sample
	cpuMS   float64
	start   time.Time // wall instant of the timed window's offset 0
}

// drive warms the daemon up and then runs the timed open loop over
// nproc connections, charging the daemon's CPU over the timed window.
func drive(d *daemon, qs []query, warm int) *phase {
	p := &phase{qs: qs, ans: make([]answer, len(qs)), warm: warm}
	workers := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	url := "http://" + d.addr + "/query"
	do := func(i int) {
		a := &p.ans[i]
		a.sent = time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(qs[i].body))
		if err != nil {
			a.err = err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		a.status = resp.StatusCode
		if err == nil && a.status == http.StatusOK {
			err = json.Unmarshal(body, &a.resp)
		}
		a.err = err
	}
	openLoop(evenSchedule(warm, serveQPS), workers, do)
	cpu0 := d.cpuMS()
	p.start = time.Now()
	timed := qs[warm:]
	p.samples = openLoop(evenSchedule(len(timed), serveQPS), workers, func(i int) { do(warm + i) })
	p.cpuMS = d.cpuMS() - cpu0
	return p
}

// checkAnswers verifies every answer of the phases against the benchmark's
// own BFS on its copy of the graph, after the daemon has stopped. A
// non-200 status, a transport error or a wrong answer is a failure.
func checkAnswers(g *graph.CSR, phases []*phase, o *outcome) {
	type use struct {
		p, i, pos int // phase, query, index in a multi's sources (-1: reach)
	}
	bySource := map[int32][]use{}
	bad := map[[2]int]error{}
	for pi, p := range phases {
		for i, q := range p.qs {
			o.attempted++
			a := p.ans[i]
			switch {
			case a.err != nil:
				bad[[2]int{pi, i}] = a.err
				continue
			case a.status != http.StatusOK:
				bad[[2]int{pi, i}] = fmt.Errorf("%s query: HTTP %d", q.q.Kind, a.status)
				continue
			}
			if q.class == classOLTP {
				bySource[q.q.Source] = append(bySource[q.q.Source], use{pi, i, -1})
				continue
			}
			if len(a.resp.Results) != len(q.q.Sources) {
				bad[[2]int{pi, i}] = fmt.Errorf("multi: %d results for %d sources", len(a.resp.Results), len(q.q.Sources))
				continue
			}
			for k, s := range q.q.Sources {
				bySource[s] = append(bySource[s], use{pi, i, k})
			}
		}
	}
	srcs := make([]int32, 0, len(bySource))
	for s := range bySource {
		srcs = append(srcs, s)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int32)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				level := refLevels(g, s)
				for _, u := range bySource[s] {
					q, a := phases[u.p].qs[u.i], &phases[u.p].ans[u.i]
					var err error
					if u.pos < 0 {
						err = checkReach(level, q.q, &a.resp)
					} else {
						err = checkMultiRoot(level, s, a.resp.Results[u.pos])
					}
					if err != nil {
						mu.Lock()
						bad[[2]int{u.p, u.i}] = err
						mu.Unlock()
					}
				}
			}
		}()
	}
	for _, s := range srcs {
		work <- s
	}
	close(work)
	wg.Wait()
	keys := make([][2]int, 0, len(bad))
	for k := range bad {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		o.fail(bad[k])
	}
}

// classTimes splits a phase's timed, successful requests into OLTP and
// OLAP client latencies (ms) and service times (ms), and counts
// rejections (429) and deadline misses (504).
type classTimes struct {
	latency, service [2][]float64
	rejected         int
	deadline         int
	lagMax           float64
}

func (p *phase) times() classTimes {
	var ct classTimes
	for i, s := range p.samples {
		a, q := p.ans[p.warm+i], p.qs[p.warm+i]
		ct.lagMax = max(ct.lagMax, float64(s.lag())/1e6)
		switch a.status {
		case http.StatusOK:
			if a.err == nil {
				ct.latency[q.class] = append(ct.latency[q.class], float64(s.latency())/1e6)
				ct.service[q.class] = append(ct.service[q.class], float64(a.resp.ElapsedUS)/1e3)
			}
		case http.StatusTooManyRequests:
			ct.rejected++
		case http.StatusGatewayTimeout:
			ct.deadline++
		}
	}
	return ct
}

func (p *phase) completed() int {
	n := 0
	for i := range p.samples {
		if p.ans[p.warm+i].status == http.StatusOK {
			n++
		}
	}
	return n
}

// runServe measures serve-mixed.
func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	dir := filepath.Join(cfg.out, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g, err := rmat.Generate(rmat.DefaultParams(serveScale, serveEF))
	if err != nil {
		return nil, err
	}
	warm := warmQueries
	var log *spanLog
	if cfg.trace {
		log = newSpanLog(time.Now())
		o.spans = log
	}
	if err := price(cfg.workload, g, o, log); err != nil {
		return nil, err
	}
	time.Sleep(settle)

	if !cfg.trace {
		// The window is split over serveSegments fresh daemons: run-to-run
		// spread on a shared host is mostly per-process (heap layout,
		// thread placement), and pooling a few processes averages it.
		timed := serveQPS * cfg.seconds / serveSegments
		qs := genQueries(g, cfg.seed, serveSegments*(warm+timed))
		var phases []*phase
		var setups, rss []float64
		for k := 0; k < serveSegments; k++ {
			d, s, err := startBfsd(cfg.bfsd, dir, k)
			if err != nil {
				return nil, err
			}
			p := drive(d, qs[k*(warm+timed):(k+1)*(warm+timed)], warm)
			rss = append(rss, peakRSSMB(d.pid()))
			d.stop()
			phases, setups = append(phases, p), append(setups, s)
		}
		checkAnswers(g, phases, o)
		var ct classTimes
		var cpu float64
		var done int
		for _, p := range phases {
			pt := p.times()
			for c := range ct.latency {
				ct.latency[c] = append(ct.latency[c], pt.latency[c]...)
			}
			ct.lagMax = max(ct.lagMax, pt.lagMax)
			cpu += p.cpuMS
			done += p.completed()
		}
		if ct.lagMax > lagBoundMS {
			return nil, fmt.Errorf("invalid run: the client paced %.0f ms late (bound %d ms)", ct.lagMax, lagBoundMS)
		}
		o.set("p50_ms", xmath.Median(ct.latency[classOLTP]), len(ct.latency[classOLTP]))
		o.set("alt_p50_ms", xmath.Median(ct.latency[classOLAP]), len(ct.latency[classOLAP]))
		if done > 0 {
			o.set("cpu_ms_per_op", cpu/float64(done), done)
		}
		o.set("setup_s", xmath.Median(setups), len(setups))
		o.set("peak_rss_mb", xmath.Median(rss), len(rss))
		return o, nil
	}

	// Traced run: half the window against a default bfsd (the
	// untraced reference), half against one that keeps every
	// traversal in a flight recorder sized to the run.
	halfSec := max(cfg.seconds/2, 1)
	qs := genQueries(g, cfg.seed, warm+serveQPS*halfSec)
	d, _, err := startBfsd(cfg.bfsd, dir, 0)
	if err != nil {
		return nil, err
	}
	plain := drive(d, qs, warm)
	d.stop()
	keep := 2 * len(qs) * (1 + multiRoots)
	if d, _, err = startBfsd(cfg.bfsd, dir, 1, "-sample", "1", "-flight-keep", strconv.Itoa(keep)); err != nil {
		return nil, err
	}
	defer d.stop()
	traced := drive(d, qs, warm)
	flight, ferr := fetchFlight(d.addr)
	d.stop()
	checkAnswers(g, []*phase{plain, traced}, o)
	if ferr != nil {
		return nil, ferr
	}

	pt, tt := plain.times(), traced.times()
	lag := max(pt.lagMax, tt.lagMax)
	if lag > lagBoundMS {
		return nil, fmt.Errorf("invalid run: the client paced %.0f ms late (bound %d ms)", lag, lagBoundMS)
	}
	setClient(o, summarize(pt.latency[classOLTP]), summarize(pt.latency[classOLAP]))
	o.set("client.lag_ms_max", lag, len(plain.samples)+len(traced.samples))
	o.set("serve.rejected", float64(pt.rejected+tt.rejected), 0)
	o.set("serve.deadline", float64(pt.deadline+tt.deadline), 0)
	o.set("serve.oltp_service_ms_p50", xmath.Median(tt.service[classOLTP]), len(tt.service[classOLTP]))
	o.set("serve.olap_service_ms_p50", xmath.Median(tt.service[classOLAP]), len(tt.service[classOLAP]))
	if p0, p1 := xmath.Median(pt.latency[classOLTP]), xmath.Median(tt.latency[classOLTP]); p0 > 0 {
		o.set("obs.trace_overhead_pct", 100*(p1/p0-1), len(tt.latency[classOLTP]))
	}
	serveSpans(o, log, traced, flight)
	return o, nil
}
