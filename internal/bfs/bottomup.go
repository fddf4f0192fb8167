package bfs

import (
	"context"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// buGrain is the vertex block size for bottom-up workers. Bottom-up
// scans the whole vertex range, so blocks can be larger than top-down's.
const buGrain = 4096

// bottomUpLevel expands one level in the bottom-up direction: every
// unvisited vertex scans its neighbors for a member of the current
// frontier and adopts the first hit as parent (paper Algorithm 2,
// lines 7-12, including the early-exit "break"). front is the current
// frontier as a bitmap; next receives the new frontier (it must arrive
// cleared). Returns the number of vertices discovered and the number
// of edges scanned — the quantity the paper bounds by |E|un and the
// simulator prices.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the counts are meaningless and the caller must abandon the
// traversal.
func bottomUpLevel(ctx context.Context, g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, level int32, workers int, ws *Workspace) (found, scans int64, err error) {
	n := g.NumVertices()
	_, nworkers := fanOut(n, buGrain, workers)
	if nworkers == 1 {
		found, scans = bottomUpLevelSerial(g, r, visited, front, next, level)
		return found, scans, nil
	}
	a := &ws.lvl
	a.g, a.r, a.visited, a.front, a.next, a.level = g, r, visited, front, next, level
	a.found.Store(0)
	a.scans.Store(0)
	if a.bu == nil {
		a.buildBottomUp()
	}
	if err := parallelGrains(ctx, &ws.team, n, buGrain, nworkers, a.bu); err != nil {
		return 0, 0, err
	}
	return a.found.Load(), a.scans.Load(), nil
}

// buildBottomUp builds the parallel bottom-up grain body: every
// unvisited vertex in the grain adopts its first neighbour in the
// frontier as parent.
//
// It stays out of line; see levelArgs.
//
//go:noinline
func (a *levelArgs) buildBottomUp() {
	a.bu = func(_, start, end int) {
		g, visited, front, next, level := a.g, a.visited, a.front, a.next, a.level
		var found, scans int64
		for v := start; v < end; v++ {
			if visited.Get(v) {
				continue
			}
			for _, u := range g.Neighbors(int32(v)) {
				scans++
				if front.Get(int(u)) {
					// Safe without a claim: v iterates this worker's
					// [start, end) grain, and parallelGrains hands out
					// disjoint grains, so exactly one worker ever
					// writes slot v.
					a.r.Parent[v] = u    //lint:shared-ok single writer: v is in this worker's disjoint grain
					a.r.Level[v] = level //lint:shared-ok single writer: v is in this worker's disjoint grain
					next.SetAtomic(v)
					found++
					break
				}
			}
		}
		a.found.Add(found)
		a.scans.Add(scans)
	}
}

func bottomUpLevelSerial(g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, level int32) (found, scans int64) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if visited.Get(v) {
			continue
		}
		for _, u := range g.Neighbors(int32(v)) {
			scans++
			if front.Get(int(u)) {
				r.Parent[v] = u
				r.Level[v] = level
				next.Set(v)
				found++
				break
			}
		}
	}
	return found, scans
}

// RunBottomUp runs a pure bottom-up BFS (the paper's GPUBU/CPUBU
// baseline). workers <= 0 uses GOMAXPROCS.
func RunBottomUp(g *graph.CSR, source int32, workers int) (*Result, error) {
	return Run(g, source, Options{Policy: AlwaysBottomUp, Workers: workers})
}
