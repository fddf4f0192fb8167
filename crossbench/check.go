package main

import (
	"fmt"
	"hash/maphash"
	"unsafe"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/invariant"
	"crossbfs/internal/serve"
)

// refLevels is the benchmark's own serial BFS: the level of every
// vertex from src, -1 when unreachable. It shares no code with the
// engines it checks.
func refLevels(g *graph.CSR, src int32) []int32 {
	level := make([]int32, g.NumVertices())
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Adj[g.Offsets[u]:g.Offsets[u+1]] {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

// checkReach compares a reach answer with the reference level map of
// the query's source.
func checkReach(level []int32, q serve.Query, r *serve.Response) error {
	want := level[q.Target]
	if r.Reachable == nil {
		return fmt.Errorf("reach %d->%d: no reachable field", q.Source, q.Target)
	}
	if *r.Reachable != (want >= 0) || r.Distance != want {
		return fmt.Errorf("reach %d->%d: got (reachable %v, distance %d), want (%v, %d)",
			q.Source, q.Target, *r.Reachable, r.Distance, want >= 0, want)
	}
	return nil
}

// checkMultiRoot compares one root's summary inside a multi answer
// with the reference level map of that root.
func checkMultiRoot(level []int32, src int32, got serve.SourceResult) error {
	visited, depth := summary(level)
	if got.Source != src || got.Visited != visited || got.Depth != depth {
		return fmt.Errorf("multi root %d: got (source %d, visited %d, depth %d), want (%d, %d)",
			src, got.Source, got.Visited, got.Depth, visited, depth)
	}
	return nil
}

// summary returns the reachable count and the eccentricity of a level
// map.
func summary(level []int32) (visited int64, depth int32) {
	for _, l := range level {
		if l >= 0 {
			visited++
			depth = max(depth, l)
		}
	}
	return visited, depth
}

var hashSeed = maphash.MakeSeed()

// levelHash fingerprints a level map, so a timed traversal can be
// compared with a validated one without keeping every map.
func levelHash(level []int32) uint64 {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(level))), len(level)*4)
	return maphash.Bytes(hashSeed, b)
}

// validated is what the benchmark keeps of one root's fully validated
// traversal.
type validated struct {
	hash    uint64
	visited int64
	edges   int64
}

// validateRoot runs the program's own validators (Graph 500 rules and
// the parent-tree invariant) on r and returns its fingerprint.
func validateRoot(g *graph.CSR, r *bfs.Result) (validated, error) {
	if err := bfs.Validate(g, r); err != nil {
		return validated{}, err
	}
	if err := invariant.Check(g, r.Source, r.Parent, r.Level); err != nil {
		return validated{}, err
	}
	return validated{levelHash(r.Level), r.VisitedCount, r.TraversedEdges}, nil
}

// checkTraversal accepts r only if it reproduces the validated level
// map and counters of its root and its parent map is a BFS tree over
// that map: every reached vertex hangs off a real edge from a vertex
// one level closer.
func checkTraversal(g *graph.CSR, want validated, r *bfs.Result) error {
	if r.VisitedCount != want.visited || r.TraversedEdges != want.edges {
		return fmt.Errorf("root %d: visited/edges %d/%d, validated %d/%d",
			r.Source, r.VisitedCount, r.TraversedEdges, want.visited, want.edges)
	}
	if levelHash(r.Level) != want.hash {
		return fmt.Errorf("root %d: level map differs from the validated one", r.Source)
	}
	for v, p := range r.Parent {
		l := r.Level[v]
		switch {
		case l < 0:
			if p != bfs.NotVisited {
				return fmt.Errorf("root %d: unreached vertex %d has parent %d", r.Source, v, p)
			}
		case l == 0:
			if int32(v) != r.Source || p != r.Source {
				return fmt.Errorf("root %d: vertex %d at level 0 with parent %d", r.Source, v, p)
			}
		default:
			if p < 0 || int(p) >= len(r.Level) || r.Level[p] != l-1 || !g.HasEdge(int32(v), p) {
				return fmt.Errorf("root %d: vertex %d (level %d) has bad parent %d", r.Source, v, l, p)
			}
		}
	}
	return nil
}
