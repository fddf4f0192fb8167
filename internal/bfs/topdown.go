package bfs

import (
	"context"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// tdGrain is the frontier block size claimed by one worker at a time.
// Small enough that a block holding a hub vertex does not serialize the
// level, large enough to amortize the claim.
const tdGrain = 256

// minFanGrains is the fewest grains a level must have to fan out (see
// fanOut); smaller levels run their serial kernel on the caller. Waking
// a helper and joining it costs microseconds, which a level of fewer
// than 16 top-down grains (about 4,000 frontier vertices) does not
// repay: on a 2-vCPU Xeon the hybrid on a 1024×1024 lattice, whose
// frontiers stay under ~2,000 vertices, ran 30% slower on two workers
// than on one while every level fanned out.
const minFanGrains = 16

// topDownLevel expands one level in the top-down direction: every
// frontier vertex offers itself as parent to its unvisited neighbors
// (paper Algorithm 1, lines 7-12). queue holds the current frontier,
// out receives the next frontier (passed in empty, returned possibly
// regrown), level is the distance to assign to newly found vertices.
// visited is the claim bitmap (bit set <=> vertex has a level). The
// per-worker shard slices live in ws, hoisted to once-per-traversal
// scope — they used to be rebuilt every level, which made the level
// loop itself an allocation hot spot.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the returned queue is meaningless and the caller must
// abandon the traversal.
func topDownLevel(ctx context.Context, g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32, workers int, ws *Workspace) ([]int32, error) {
	_, nworkers := fanOut(len(queue), tdGrain, workers)
	if nworkers == 1 {
		return topDownLevelSerial(g, r, visited, queue, out, level), nil
	}
	a := &ws.lvl
	a.g, a.r, a.visited, a.queue, a.level = g, r, visited, queue, level
	a.locals = ws.workerShards(nworkers)
	if a.td == nil {
		a.buildTopDown()
	}
	if err := parallelGrains(ctx, &ws.team, len(queue), tdGrain, nworkers, a.td); err != nil {
		return nil, err
	}
	for _, l := range a.locals {
		out = append(out, l...)
	}
	return out, nil
}

// buildTopDown builds the parallel top-down grain body: every frontier
// vertex in the grain claims its unvisited neighbours, and the claim
// winner records the parent and level and keeps the vertex in its own
// output shard.
//
// It stays out of line; see levelArgs.
//
//go:noinline
func (a *levelArgs) buildTopDown() {
	a.td = func(worker, start, end int) {
		g, visited, level := a.g, a.visited, a.level
		local := a.locals[worker]
		for _, u := range a.queue[start:end] {
			for _, v := range g.Neighbors(u) {
				if visited.GetAtomic(int(v)) {
					continue
				}
				if visited.SetAtomic(int(v)) {
					a.r.Parent[v] = u
					a.r.Level[v] = level
					local = append(local, v)
				}
			}
		}
		a.locals[worker] = local
	}
}

func topDownLevelSerial(g *graph.CSR, r *Result, visited *bitmap.Bitmap, queue, out []int32, level int32) []int32 {
	for _, u := range queue {
		for _, v := range g.Neighbors(u) {
			if !visited.Get(int(v)) {
				visited.Set(int(v))
				r.Parent[v] = u
				r.Level[v] = level
				out = append(out, v)
			}
		}
	}
	return out
}

// RunTopDown runs a pure top-down BFS (the paper's GPUTD/CPUTD
// baseline algorithm). workers <= 0 uses GOMAXPROCS.
func RunTopDown(g *graph.CSR, source int32, workers int) (*Result, error) {
	return Run(g, source, Options{Policy: AlwaysTopDown, Workers: workers})
}
