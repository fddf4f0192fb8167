package bfs

import (
	"context"
	"sort"
	"time"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// Edge-parallel top-down kernel. The vertex-parallel kernel assigns a
// frontier vertex per worker grain, so one hub's adjacency list is
// walked serially — the critical path the cost model charges GPUs for
// (Arch.ThreadRate) and the reason the paper's GPU suffers on hub
// levels. This kernel parallelizes over the frontier's *edge space*
// instead: workers claim fixed-size ranges of the concatenated
// adjacency lists, locating the owning vertices by binary search over
// a degree prefix sum. Hub lists get split across workers.

// epGrain is the edge-range grain size per claim.
const epGrain = 2048

// topDownLevelEdgeParallel expands one level top-down with
// edge-parallel work division. Semantics match topDownLevel; it also
// returns the frontier's |E|cq, the total of its degree prefix sum. The
// prefix-sum and shard buffers come from ws so the level loop stops
// allocating once the traversal warms up. Cancellation is observed at
// grain boundaries; on error the traversal must be abandoned.
func topDownLevelEdgeParallel(ctx context.Context, g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32, workers int, ws *Workspace) ([]int32, int64, error) {
	// Degree prefix sum over the frontier.
	prefix := ws.prefixBuf(len(queue) + 1)
	prefix[0] = 0
	for i, v := range queue {
		prefix[i+1] = prefix[i] + g.Degree(v)
	}
	totalEdges := prefix[len(queue)]
	if totalEdges == 0 {
		return out, 0, nil
	}
	_, nworkers := fanOut(int(totalEdges), epGrain, workers)
	if nworkers == 1 {
		return topDownLevelSerial(g, r, visited, queue, out, level), totalEdges, nil
	}
	a := &ws.lvl
	a.g, a.r, a.visited, a.queue, a.prefix, a.level = g, r, visited, queue, prefix, level
	a.locals = ws.workerShards(nworkers)
	if a.ep == nil {
		a.buildEdgeParallel()
	}
	if err := parallelGrains(ctx, &ws.team, int(totalEdges), epGrain, nworkers, a.ep); err != nil {
		return nil, 0, err
	}
	for _, l := range a.locals {
		out = append(out, l...)
	}
	return out, totalEdges, nil
}

// buildEdgeParallel builds the edge-parallel grain body: the grain is a
// range of the frontier's concatenated adjacency lists, walked from the
// first frontier vertex whose list intersects it.
//
// It stays out of line; see levelArgs.
//
//go:noinline
func (a *levelArgs) buildEdgeParallel() {
	a.ep = func(worker, start, end int) {
		g, visited, queue, prefix, level := a.g, a.visited, a.queue, a.prefix, a.level
		local := a.locals[worker]
		// First frontier vertex whose edge range intersects [start, end).
		//lint:alloc-ok one predicate closure per grain, amortised over the grain's whole edge range
		qi := sort.Search(len(queue), func(i int) bool { return prefix[i+1] > int64(start) })
		for pos := int64(start); pos < int64(end) && qi < len(queue); {
			u := queue[qi]
			adjStart := g.Offsets[u] + (pos - prefix[qi])
			adjEnd := g.Offsets[u] + (min64(int64(end), prefix[qi+1]) - prefix[qi])
			for _, v := range g.Adj[adjStart:adjEnd] {
				if visited.GetAtomic(int(v)) {
					continue
				}
				if visited.SetAtomic(int(v)) {
					a.r.Parent[v] = u
					a.r.Level[v] = level
					local = append(local, v)
				}
			}
			pos = prefix[qi+1]
			qi++
		}
		a.locals[worker] = local
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// edgeParallelEngine is the edge-parallel top-down kernel as an Engine.
type edgeParallelEngine struct {
	workers int
}

// EdgeParallelEngine returns the edge-parallel top-down kernel as an
// Engine. workers <= 0 uses GOMAXPROCS.
func EdgeParallelEngine(workers int) Engine { return edgeParallelEngine{workers: workers} }

// Name implements Engine.
func (edgeParallelEngine) Name() string { return "edgeparallel" }

// Run implements Engine.
func (e edgeParallelEngine) Run(g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunContext(context.Background(), g, source, ws)
}

// RunContext implements Engine.
func (e edgeParallelEngine) RunContext(ctx context.Context, g *graph.CSR, source int32, ws *Workspace) (*Result, error) {
	return e.RunObserved(ctx, g, source, ws, nil)
}

// RunObserved implements Engine. The level events report the
// edge-space scheduling inputs: grains count epGrain-sized edge
// ranges, not frontier blocks.
func (e edgeParallelEngine) RunObserved(ctx context.Context, g *graph.CSR, source int32, ws *Workspace, rec obs.Recorder) (_ *Result, err error) {
	var (
		o    tobs
		done *Result
	)
	defer func() { o.end(done, err) }()
	defer func() { recoverToError(recover(), &err) }()
	if err := checkSource(g, source); err != nil {
		return nil, err
	}
	reusedWS := ws != nil
	if ws == nil {
		ws = NewWorkspace(g.NumVertices())
	}
	defer ws.quiesce()
	o = observeStart(rec, g, source, e.Name(), reusedWS)
	r := ws.begin(g, source)
	visited := ws.visited
	visited.Set(int(source))
	unvisited := int64(g.NumVertices()) - 1
	queue := append(ws.queue[:0], source)
	spare := ws.spare
	level := int32(1)
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var stepStart time.Time
		if o.live {
			stepStart = time.Now()
		}
		out, fe, err := topDownLevelEdgeParallel(ctx, g, r, visited, queue, spare[:0], level, e.workers, ws)
		if err != nil {
			return nil, err
		}
		if o.live {
			grains, nworkers := fanOut(int(fe), epGrain, e.workers)
			o.event(obs.Event{
				Kind: obs.KindLevel, Step: level, Dir: obs.TopDown,
				FrontierVertices: int64(len(queue)),
				FrontierEdges:    fe,
				Discovered:       int64(len(out)),
				Unvisited:        unvisited,
				Grains:           int64(grains),
				Workers:          int32(nworkers),
				Wall:             stepStart,
				WallDur:          time.Since(stepStart),
			})
		}
		r.TraversedEdges += fe
		unvisited -= int64(len(out))
		queue, spare = out, queue
		r.Directions = append(r.Directions, TopDown)
		r.StepScans = append(r.StepScans, 0)
		level++
	}
	r.VisitedCount = int64(g.NumVertices()) - unvisited
	ws.retain(r, queue, spare)
	done = r
	return r, nil
}

// RunTopDownEdgeParallel runs a pure top-down BFS with the
// edge-parallel kernel and one-shot buffers.
func RunTopDownEdgeParallel(g *graph.CSR, source int32, workers int) (*Result, error) {
	return edgeParallelEngine{workers: workers}.Run(g, source, nil)
}
