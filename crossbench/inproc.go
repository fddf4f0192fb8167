package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/obs"
	"crossbfs/internal/rmat"
	"crossbfs/internal/xmath"
)

// setupReps is how many times each run builds its input; setup_s is
// the median.
const setupReps = 3

// numRoots is the Graph 500 search-key count each in-process run draws.
const numRoots = 64

// graphSpec is one in-process workload's input.
type graphSpec struct {
	build func() (*graph.CSR, error)
	roots func(g *graph.CSR, seed int64) []int32
}

// graph500S18 is R-MAT SCALE 18, edge factor 16, seed 1, with roots
// drawn by the Graph 500 sampling rule.
var graph500S18 = graphSpec{
	build: func() (*graph.CSR, error) { return rmat.Generate(rmat.DefaultParams(18, 16)) },
	roots: func(g *graph.CSR, seed int64) []int32 { return graph500.SampleRoots(g, numRoots, uint64(seed)) },
}

// latticeSide is the width of the lattice-1k grid.
const latticeSide = 1024

// lattice1K is a 1024×1024 4-neighbour grid. Its roots are drawn
// uniformly from the ring of vertices whose eccentricity is within
// latticeBand of latticeEcc levels, so every seed traverses to the same
// depth and the run-to-run spread reflects the engine, not the draw
// (eccentricities on the grid range from 1,024 to 2,046).
var lattice1K = graphSpec{
	build: func() (*graph.CSR, error) { return lattice(latticeSide) },
	roots: func(_ *graph.CSR, seed int64) []int32 {
		rng := rand.New(rand.NewSource(seed))
		far := func(c int) int { return max(c, latticeSide-1-c) }
		seen := map[int32]bool{}
		roots := make([]int32, 0, numRoots)
		for len(roots) < numRoots {
			x, y := rng.Intn(latticeSide), rng.Intn(latticeSide)
			v := int32(y*latticeSide + x)
			if e := far(x) + far(y); e < latticeEcc-latticeBand || e > latticeEcc+latticeBand || seen[v] {
				continue
			}
			seen[v] = true
			roots = append(roots, v)
		}
		return roots
	},
}

const (
	latticeEcc  = 1536
	latticeBand = 8
)

func lattice(side int) (*graph.CSR, error) {
	edges := make([]graph.Edge, 0, 2*side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := int32(y*side + x)
			if x+1 < side {
				edges = append(edges, graph.Edge{From: v, To: v + 1})
			}
			if y+1 < side {
				edges = append(edges, graph.Edge{From: v, To: v + int32(side)})
			}
		}
	}
	return graph.Build(side*side, edges, graph.BuildOptions{Symmetrize: true})
}

// eventLog is the benchmark-owned obs.Recorder: it keeps the level and
// exchange events of the traversal in flight.
type eventLog struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (l *eventLog) Event(e obs.Event) {
	if e.Kind != obs.KindLevel && e.Kind != obs.KindExchangeEnd {
		return
	}
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

// lane is one engine measured over the roots.
type lane struct {
	name   string
	engine bfs.Engine
	ws     *bfs.Workspace
	rec    *eventLog // nil: untraced Run; else RunObserved into it
	cpu    bool      // charge process CPU time to this lane

	ms, mteps []float64
	cpuNS     int64
	levels    int64
	buLevels  int64
	scans     int64
	edges     int64
	exBytes   int64
	ghostSent int64
	ghostWon  int64
	// Traced lanes only: edges the top-down levels examined and
	// adjacency entries the bottom-up levels scanned.
	tdEdges int64
	buScans int64
}

func newLane(name string, e bfs.Engine, g *graph.CSR) *lane {
	return &lane{name: name, engine: e, ws: bfs.NewWorkspace(g.NumVertices())}
}

func cpuNow() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// traverse runs one timed traversal on l, checks it against the
// validated root, and records its spans when l is traced.
func (l *lane) traverse(g *graph.CSR, root int32, want validated, o *outcome, log *spanLog, group uint64) {
	o.attempted++
	begin := time.Now()
	var c0 int64
	if l.cpu {
		c0 = cpuNow()
	}
	var r *bfs.Result
	var err error
	t0 := time.Now()
	if l.rec != nil {
		l.rec.evs = l.rec.evs[:0]
		r, err = l.engine.RunObserved(context.Background(), g, root, l.ws, l.rec)
	} else {
		r, err = l.engine.Run(g, root, l.ws)
	}
	t1 := time.Now()
	if l.cpu {
		l.cpuNS += cpuNow() - c0
	}
	if err == nil {
		err = checkTraversal(g, want, r)
	}
	if err != nil {
		o.fail(fmt.Errorf("%s: %w", l.name, err))
		return
	}
	ms := float64(t1.Sub(t0)) / 1e6
	l.ms = append(l.ms, ms)
	l.mteps = append(l.mteps, float64(r.TraversedEdges)/ms/1e3)
	l.edges += r.TraversedEdges
	l.levels += int64(r.NumLevels())
	for i, d := range r.Directions {
		l.scans += r.StepScans[i]
		if d == bfs.BottomUp {
			l.buLevels++
		}
	}
	for _, ex := range r.Exchanges {
		l.exBytes += ex.TotalBytes()
		l.ghostSent += ex.GhostSent
		l.ghostWon += ex.GhostApplied
	}
	if log == nil || l.rec == nil {
		return
	}
	rootSpan := log.add(group, "root", begin, time.Now(), -1)
	bfsSpan := log.add(group, l.name, t0, t1, rootSpan)
	levelSpan := map[int32]int{}
	for _, e := range l.rec.evs {
		if e.Kind == obs.KindLevel {
			if e.Dir == obs.BottomUp {
				l.buScans += e.Scans
			} else if e.FrontierEdges > 0 {
				l.tdEdges += e.FrontierEdges
			}
			levelSpan[e.Step] = log.add(group, l.name+".level."+e.Dir.String(), e.Wall, e.Wall.Add(e.WallDur), bfsSpan)
		}
	}
	for _, e := range l.rec.evs {
		if e.Kind == obs.KindExchangeEnd {
			parent, ok := levelSpan[e.Step]
			if !ok {
				parent = bfsSpan
			}
			log.add(group, "exchange", e.Wall.Add(-e.WallDur), e.Wall, parent)
		}
	}
}

// measure cycles the roots through every lane until the window ends.
// Each root runs on every lane before the next root starts, so the
// lanes see the same roots and the same machine state.
func measure(g *graph.CSR, roots []int32, refs []validated, lanes []*lane, window time.Duration, o *outcome, log *spanLog) {
	deadline := time.Now().Add(window)
	var group uint64
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(roots)
		for _, l := range lanes {
			group++
			l.traverse(g, roots[k], refs[k], o, log, group)
		}
	}
}

// validateRoots traverses every root with the serial engine and runs
// bfs.Validate and invariant.Check on it, spreading the work over all
// cores (nothing is being timed yet). It returns the roots that passed
// with their fingerprints; each root that failed counts as a failure.
func validateRoots(g *graph.CSR, roots []int32, o *outcome) ([]int32, []validated) {
	refs := make([]validated, len(roots))
	errs := make([]error, len(roots))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := bfs.NewWorkspace(g.NumVertices())
			for i := range work {
				r, err := bfs.SerialEngine().Run(g, roots[i], ws)
				if err == nil {
					refs[i], err = validateRoot(g, r)
				}
				errs[i] = err
			}
		}()
	}
	for i := range roots {
		work <- i
	}
	close(work)
	wg.Wait()
	var okRoots []int32
	var okRefs []validated
	for i, err := range errs {
		o.attempted++
		if err != nil {
			o.fail(fmt.Errorf("root %d failed validation: %w", roots[i], err))
			continue
		}
		okRoots, okRefs = append(okRoots, roots[i]), append(okRefs, refs[i])
	}
	return okRoots, okRefs
}

// runInProc measures one in-process workload.
func runInProc(cfg config, spec graphSpec) (*outcome, error) {
	o := newOutcome()
	var g *graph.CSR
	var setups []float64
	for i := 0; i < setupReps; i++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = spec.build(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.set("setup_s", xmath.Median(setups), len(setups))
	runtime.GC()

	roots, refs := validateRoots(g, spec.roots(g, cfg.seed), o)
	if len(roots) < 2 {
		return nil, fmt.Errorf("only %d roots passed validation", len(roots))
	}

	nproc := runtime.GOMAXPROCS(0)
	main := newLane("bfs", bfs.DefaultEngine(), g)
	alt := newLane("sharded", bfs.NewShardedEngine(nproc, bfs.DefaultM, bfs.DefaultN), g)
	w1 := newLane("bfs_w1", bfs.HybridEngine(bfs.DefaultM, bfs.DefaultN, 1), g)

	var log *spanLog
	if cfg.trace {
		log = newSpanLog(time.Now())
		o.spans = log
	}
	if err := price(cfg.workload, g, o, log); err != nil {
		return nil, err
	}

	// Warm the workspaces, the sharded engine's partition cache and
	// the worker pools; these traversals are checked but not timed.
	for _, l := range []*lane{main, alt, w1} {
		for k := 0; k < 2; k++ {
			l.traverse(g, roots[k], refs[k], o, nil, 0)
		}
		*l = lane{name: l.name, engine: l.engine, ws: l.ws}
	}

	window := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		main.cpu = true
		runtime.GC()
		measure(g, roots, refs, []*lane{main, alt}, window, o, nil)
		o.set("p50_ms", xmath.Median(main.ms), len(main.ms))
		o.set("alt_p50_ms", xmath.Median(alt.ms), len(alt.ms))
		if len(main.ms) > 0 {
			o.set("cpu_ms_per_op", float64(main.cpuNS)/1e6/float64(len(main.ms)), len(main.ms))
		}
		o.set("peak_rss_mb", peakRSSMB("self"), 0)
		return o, nil
	}

	// Traced run: the first half repeats the untraced measurement (the
	// reference for obs.trace_overhead_pct and the source of the
	// throughput ratios), the second half traces every traversal.
	half := window / 2
	runtime.GC()
	gc0 := readGC()
	measure(g, roots, refs, []*lane{main, w1, alt}, half, o, nil)
	gc1 := readGC()
	o.set("runtime.gc_cycles", gc1.cycles-gc0.cycles, 0)
	o.set("runtime.gc_pause_ms", (gc1.pause-gc0.pause)*1e3, 0)
	setClient(o, summarize(main.ms), summarize(alt.ms))
	untracedP50 := xmath.Median(main.ms)
	o.set("bfs.mteps_hmean", xmath.HarmonicMean(main.mteps), len(main.mteps))
	o.set("bfs.traversal_ms_w1_p50", xmath.Median(w1.ms), len(w1.ms))
	if untracedP50 > 0 {
		o.set("bfs.parallel_speedup", xmath.Median(w1.ms)/untracedP50, len(main.ms))
	}
	o.set("bfs.sharded_traversal_ms_p50", xmath.Median(alt.ms), len(alt.ms))
	o.set("part.sharded_mteps_hmean", xmath.HarmonicMean(alt.mteps), len(alt.mteps))
	if n := len(alt.ms); n > 0 {
		o.set("part.exchange_bytes_per_traversal", float64(alt.exBytes)/float64(n), n)
	}
	if alt.ghostSent > 0 {
		o.set("part.ghost_apply_ratio", float64(alt.ghostWon)/float64(alt.ghostSent), len(alt.ms))
	}
	if main.edges > 0 {
		o.set("bfs.scans_per_edge", float64(main.scans)/float64(main.edges), len(main.ms))
	}
	o.set("bfs.allocs_per_traversal", allocsPerRun(g, roots[0], main), 8)

	tm := newLane("bfs", main.engine, g)
	tm.ws, tm.rec = main.ws, &eventLog{}
	ta := newLane("sharded", alt.engine, g)
	ta.ws, ta.rec = alt.ws, &eventLog{}
	// w1 keeps running untraced so both halves run the same mix.
	measure(g, roots, refs, []*lane{tm, w1, ta}, window-half, o, log)
	levelMetrics(o, log, tm)
	if n := len(ta.ms); n > 0 {
		o.set("part.exchange_ms_per_traversal", float64(log.unionByName("exchange"))/1e6/float64(n), n)
	}
	if p := xmath.Median(tm.ms); untracedP50 > 0 && p > 0 {
		o.set("obs.trace_overhead_pct", 100*(p/untracedP50-1), len(tm.ms))
	}
	return o, nil
}

// setClient fills the caller-side timing tails for the workload's two
// operation classes.
func setClient(o *outcome, main, alt dist) {
	o.set("client.p90_ms", main.at(90), main.N)
	o.set("client.p99_ms", main.at(99), main.N)
	o.set("client.n", float64(main.N), 0)
	o.set("client.tail_pct", main.TailPct, 0)
	o.set("client.tail_ms", main.Tail, main.N)
	o.set("client.alt_n", float64(alt.N), 0)
	o.set("client.alt_tail_pct", alt.TailPct, 0)
	o.set("client.alt_tail_ms", alt.Tail, alt.N)
}

// levelMetrics derives the bfs.* direction and dispatch metrics from
// the traced lane's level spans.
func levelMetrics(o *outcome, log *spanLog, l *lane) {
	n := len(l.ms)
	if n == 0 {
		return
	}
	self := log.selfByName()
	td, bu := self[l.name+".level.TD"], self[l.name+".level.BU"]
	o.set("bfs.td_ms_per_traversal", float64(td)/1e6/float64(n), n)
	o.set("bfs.bu_ms_per_traversal", float64(bu)/1e6/float64(n), n)
	if td > 0 {
		o.set("bfs.td_mteps", float64(l.tdEdges)/float64(td)*1e3, n)
	}
	if bu > 0 {
		o.set("bfs.bu_mteps", float64(l.buScans)/float64(bu)*1e3, n)
	}
	o.set("bfs.levels_mean", float64(l.levels)/float64(n), n)
	o.set("bfs.bu_levels_mean", float64(l.buLevels)/float64(n), n)
	if l.levels > 0 {
		o.set("bfs.us_per_level", xmath.Sum(l.ms)*1e3/float64(l.levels), n)
	}
}

// allocsPerRun counts heap allocations per traversal of the main lane
// in steady state (workspace already warm).
func allocsPerRun(g *graph.CSR, root int32, l *lane) float64 {
	const runs = 8
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		// Only allocations count here; this root's traversals on this
		// engine were checked in the timed window.
		_, _ = l.engine.Run(g, root, l.ws)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / runs
}

type gcStats struct{ cycles, pause float64 }

// readGC samples the GC cycle count and total GC pause seconds from
// runtime/metrics (pauses summed at bucket midpoints).
func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	var st gcStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		st.cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			st.pause += float64(c) * (lo + hi) / 2
		}
	}
	return st
}

// peakRSSMB reads VmHWM of /proc/<pid>/status in MiB.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
