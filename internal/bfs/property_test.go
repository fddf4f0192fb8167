package bfs

import (
	"testing"
	"testing/quick"

	"crossbfs/internal/graph"
	"crossbfs/internal/invariant"
	"crossbfs/internal/xrand"
)

// randomGraph builds an arbitrary (non-R-MAT) undirected graph so the
// properties are not specific to scale-free inputs. One seed in four
// draws a small lattice instead: the high-diameter family where
// frontiers stay tiny and direction switching never pays.
func randomGraph(seed uint64) (*graph.CSR, int32, error) {
	rng := xrand.New(seed)
	if seed%4 == 0 {
		side := 2 + rng.Intn(15)
		g, err := graph.Lattice(side)
		if err != nil {
			return nil, 0, err
		}
		return g, int32(rng.Intn(side * side)), nil
	}
	n := 2 + rng.Intn(200)
	m := rng.Intn(4 * n)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		return nil, 0, err
	}
	return g, int32(rng.Intn(n)), nil
}

// TestPropertyAllEnginesAgree: for arbitrary graphs, sources and
// switching parameters, every engine produces the same level map as
// the serial reference and passes Graph 500 validation.
func TestPropertyAllEnginesAgree(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw uint16, workersRaw uint8) bool {
		g, src, err := randomGraph(seed)
		if err != nil {
			return false
		}
		m := 1 + float64(mRaw%512)
		n := 1 + float64(nRaw%512)
		workers := int(workersRaw%4) + 1

		want, err := Serial(g, src)
		if err != nil {
			return false
		}
		runs := []func() (*Result, error){
			func() (*Result, error) { return RunTopDown(g, src, workers) },
			func() (*Result, error) { return RunBottomUp(g, src, workers) },
			func() (*Result, error) { return RunTopDownEdgeParallel(g, src, workers) },
			func() (*Result, error) { return Hybrid(g, src, m, n, workers) },
			func() (*Result, error) {
				return Run(g, src, Options{Policy: NewAlphaBeta(float64(1+mRaw%30), float64(1+nRaw%40)), Workers: workers})
			},
			func() (*Result, error) {
				return Run(g, src, Options{Policy: NewHongHybrid(), Workers: workers})
			},
		}
		for _, run := range runs {
			got, err := run()
			if err != nil {
				return false
			}
			if Validate(g, got) != nil {
				return false
			}
			if invariant.Check(g, got.Source, got.Parent, got.Level) != nil {
				return false
			}
			for v := range want.Level {
				if want.Level[v] != got.Level[v] {
					return false
				}
			}
			if got.VisitedCount != want.VisitedCount || got.TraversedEdges != want.TraversedEdges {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTraceConsistency: traces of arbitrary graphs satisfy the
// conservation laws regardless of structure.
func TestPropertyTraceConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		g, src, err := randomGraph(seed)
		if err != nil {
			return false
		}
		tr, err := TraceFrom(g, src)
		if err != nil {
			return false
		}
		var frontierSum, edgeSum int64
		for _, s := range tr.Steps {
			frontierSum += s.FrontierVertices
			edgeSum += s.FrontierEdges
			if s.GraphVertices != int64(g.NumVertices()) {
				return false
			}
			if s.BottomUpScans < 0 || s.MaxScan < 0 {
				return false
			}
		}
		return frontierSum == tr.Reachable && edgeSum == tr.EdgesVisited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
