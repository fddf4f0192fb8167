package bfs

import (
	"context"
	"math/bits"

	"crossbfs/internal/bitmap"
	"crossbfs/internal/graph"
)

// buGrain is the vertex block size for bottom-up workers. Bottom-up
// scans the whole vertex range, so blocks can be larger than top-down's.
// It is a multiple of 64, so every grain owns whole bitmap words.
const buGrain = 4096

// bottomUpLevel expands one level in the bottom-up direction: every
// unvisited vertex scans its neighbors for a member of the current
// frontier and adopts the first hit as parent (paper Algorithm 2,
// lines 7-12, including the early-exit "break"). front is the current
// frontier as a bitmap; next receives the new frontier (it must arrive
// cleared). Returns the number of vertices discovered, the number of
// edges scanned — the quantity the paper bounds by |E|un and the
// simulator prices — and the degree sum of the discovered vertices,
// which is the next step's |E|cq.
//
// Cancellation is observed at grain boundaries (see parallelGrains);
// on error the counts are meaningless and the caller must abandon the
// traversal.
func bottomUpLevel(ctx context.Context, g *graph.CSR, r *Result, visited, front, next *bitmap.Bitmap, level int32, workers int, ws *Workspace) (found, scans, edges int64, err error) {
	n := g.NumVertices()
	dead := ws.deadMask()
	_, nworkers := fanOut(n, buGrain, workers)
	if nworkers == 1 {
		found, scans, edges = bottomUpRange(g, r.Parent, r.Level, visited, dead, front, next, level, 0, n)
		return found, scans, edges, nil
	}
	a := &ws.lvl
	a.g, a.r, a.visited, a.dead, a.front, a.next, a.level = g, r, visited, dead, front, next, level
	a.found.Store(0)
	a.scans.Store(0)
	a.edges.Store(0)
	if a.bu == nil {
		a.buildBottomUp()
	}
	if err := parallelGrains(ctx, &ws.team, n, buGrain, nworkers, a.bu); err != nil {
		return 0, 0, 0, err
	}
	return a.found.Load(), a.scans.Load(), a.edges.Load(), nil
}

// buildBottomUp builds the parallel bottom-up grain body: the kernel
// over the grain's own vertex range.
//
// It stays out of line; see levelArgs.
//
//go:noinline
func (a *levelArgs) buildBottomUp() {
	a.bu = func(_, start, end int) {
		found, scans, edges := bottomUpRange(a.g, a.r.Parent, a.r.Level, a.visited, a.dead, a.front, a.next, a.level, start, end)
		a.found.Add(found)
		a.scans.Add(scans)
		a.edges.Add(edges)
	}
}

// bottomUpRange is the bottom-up kernel over vertices [lo, hi); lo is a
// multiple of 64. It walks visited a word at a time: the candidates of
// a word are the bits set in neither visited nor dead, visited in
// ascending order. A candidate with no edges can never be discovered,
// so it joins dead and is skipped by every later level of the
// traversal. Each word's discoveries go to next, and its new dead bits
// to dead, in one store each; a range owns whole words, so concurrent
// ranges never share one.
func bottomUpRange(g *graph.CSR, parent, levels []int32, visited, dead, front, next *bitmap.Bitmap, level int32, lo, hi int) (found, scans, edges int64) {
	off, adj := g.Offsets, g.Adj
	vw, dw, fw := visited.Words(), dead.Words(), front.Words()
	last := (hi - 1) / 64
	for wi := lo / 64; wi <= last; wi++ {
		cand := ^(vw[wi] | dw[wi])
		if wi == last && hi%64 != 0 {
			cand &= 1<<(uint(hi)%64) - 1
		}
		if cand == 0 {
			continue
		}
		var disc, edgeless uint64
		base := wi * 64
		for ; cand != 0; cand &= cand - 1 {
			b := bits.TrailingZeros64(cand)
			v := base + b
			s, e := off[v], off[v+1]
			if s == e {
				edgeless |= 1 << uint(b)
				continue
			}
			i := firstInFrontier(fw, adj[s:e])
			if i < 0 {
				scans += e - s
				continue
			}
			scans += int64(i) + 1
			parent[v] = adj[s+int64(i)] //lint:shared-ok single writer: v is in this range, and parallelGrains hands out disjoint ranges of whole words
			levels[v] = level           //lint:shared-ok single writer: v is in this range, and parallelGrains hands out disjoint ranges of whole words
			disc |= 1 << uint(b)
			found++
			edges += e - s
		}
		if disc != 0 {
			next.SetWord(wi, disc)
		}
		if edgeless != 0 {
			dead.OrWord(wi, edgeless)
		}
	}
	return found, scans, edges
}

// firstInFrontier returns the index of the first vertex of nbrs whose
// bit is set in the frontier words fw, or -1.
func firstInFrontier(fw []uint64, nbrs []int32) int {
	for i, u := range nbrs {
		if w := uint32(u); fw[w/64]&(1<<(w%64)) != 0 {
			return i
		}
	}
	return -1
}

// RunBottomUp runs a pure bottom-up BFS (the paper's GPUBU/CPUBU
// baseline). workers <= 0 uses GOMAXPROCS.
func RunBottomUp(g *graph.CSR, source int32, workers int) (*Result, error) {
	return Run(g, source, Options{Policy: AlwaysBottomUp, Workers: workers})
}
