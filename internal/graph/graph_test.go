package graph

import (
	"testing"
	"testing/quick"

	"crossbfs/internal/xrand"
)

// mustBuild builds a graph or fails the test.
func mustBuild(t *testing.T, n int, edges []Edge, opts BuildOptions) *CSR {
	t.Helper()
	g, err := Build(n, edges, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("built graph fails validation: %v", err)
	}
	return g
}

func TestBuildEmptyGraph(t *testing.T) {
	g := mustBuild(t, 0, nil, BuildOptions{})
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestBuildSingleVertex(t *testing.T) {
	g := mustBuild(t, 1, nil, BuildOptions{})
	if g.NumVertices() != 1 || g.Degree(0) != 0 {
		t.Error("single-vertex graph malformed")
	}
}

func TestBuildSymmetrize(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true})
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge (%d,%d)", e[0], e[1])
		}
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
}

func TestBuildDirected(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.HasEdge(1, 0) {
		t.Error("directed build inserted reverse edge")
	}
}

func TestBuildDropsSelfLoops(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 0}, {0, 1}}, BuildOptions{Symmetrize: true})
	if g.HasEdge(0, 0) {
		t.Error("self loop kept by default")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuildKeepsSelfLoopsWhenAsked(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 0}}, BuildOptions{KeepSelfLoops: true})
	if !g.HasEdge(0, 0) {
		t.Error("self loop dropped despite KeepSelfLoops")
	}
}

func TestBuildDeduplicates(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1}, {0, 1}, {1, 0}}, BuildOptions{Symmetrize: true})
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestBuildKeepDuplicates(t *testing.T) {
	g := mustBuild(t, 2, []Edge{{0, 1}, {0, 1}}, BuildOptions{KeepDuplicates: true})
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2 with duplicates kept", g.Degree(0))
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 2}}, BuildOptions{}); err == nil {
		t.Error("out-of-range To accepted")
	}
	if _, err := Build(2, []Edge{{-1, 0}}, BuildOptions{}); err == nil {
		t.Error("negative From accepted")
	}
	if _, err := Build(-1, nil, BuildOptions{}); err == nil {
		t.Error("negative vertex count accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 4}, {0, 1}, {0, 3}, {0, 2}}, BuildOptions{})
	adj := g.Neighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not strictly sorted: %v", adj)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true})
	s := g.ComputeStats()
	if s.NumVertices != 4 || s.NumEdges != 4 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.MinDegree != 0 || s.MaxDegree != 2 {
		t.Errorf("stats degrees wrong: %+v", s)
	}
	if s.Isolated != 1 {
		t.Errorf("Isolated = %d, want 1 (vertex 3)", s.Isolated)
	}
	if s.AvgDegree != 1.0 {
		t.Errorf("AvgDegree = %g, want 1", s.AvgDegree)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := mustBuild(t, 0, nil, BuildOptions{})
	s := g.ComputeStats()
	if s.MinDegree != 0 || s.MaxDegree != 0 || s.AvgDegree != 0 {
		t.Errorf("empty stats: %+v", s)
	}
}

func TestMaxDegree(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}}, BuildOptions{Symmetrize: true})
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
}

// TestBuildSymmetrizedIsUndirected: property — in a symmetrized graph,
// every edge has its reverse.
func TestBuildSymmetrizedIsUndirected(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(30)
		m := rng.Intn(100)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
		}
		g, err := Build(n, edges, BuildOptions{Symmetrize: true})
		if err != nil {
			return false
		}
		for u := int32(0); u < int32(n); u++ {
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuildPreservesConnectivity: property — every input edge (u,v)
// with u != v appears in the built graph.
func TestBuildPreservesConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(20)
		m := 1 + rng.Intn(60)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
		}
		g, err := Build(n, edges, BuildOptions{})
		if err != nil {
			return false
		}
		for _, e := range edges {
			if e.From != e.To && !g.HasEdge(e.From, e.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}, BuildOptions{Symmetrize: true})

	bad := &CSR{Offsets: append([]int64(nil), g.Offsets...), Adj: append([]int32(nil), g.Adj...)}
	bad.Adj[0] = 99 // out of range
	if bad.Validate() == nil {
		t.Error("out-of-range neighbor not caught")
	}

	bad2 := &CSR{Offsets: append([]int64(nil), g.Offsets...), Adj: append([]int32(nil), g.Adj...)}
	bad2.Offsets[1] = 100 // non-monotone / out of bounds
	if bad2.Validate() == nil {
		t.Error("bad offsets not caught")
	}

	bad3 := &CSR{Offsets: []int64{1, 2}, Adj: []int32{0, 0}}
	if bad3.Validate() == nil {
		t.Error("offsets not starting at zero not caught")
	}
}

// TestLattice pins the grid's shape: corner, border and interior
// degrees, the undirected edge count, and the 2(side-1) diameter from
// a corner.
func TestLattice(t *testing.T) {
	const side = 7
	g, err := Lattice(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("lattice fails validation: %v", err)
	}
	if g.NumVertices() != side*side || g.NumEdges() != 2*2*side*(side-1) {
		t.Fatalf("lattice has %d vertices, %d directed edges", g.NumVertices(), g.NumEdges())
	}
	for v, want := range map[int32]int64{0: 2, side - 1: 2, 3: 3, side + 1: 4, side*side - 1: 2} {
		if d := g.Degree(v); d != want {
			t.Errorf("degree(%d) = %d, want %d", v, d, want)
		}
	}
	if !g.HasEdge(side+1, 2*side+1) || g.HasEdge(side-1, side) {
		t.Error("lattice wires the wrong neighbours (row wrap or missing down edge)")
	}
	if ecc := g.Eccentricity(0); ecc != 2*(side-1) {
		t.Errorf("corner eccentricity = %d, want %d", ecc, 2*(side-1))
	}
	for _, bad := range []int{0, -1, 1 << 16} {
		if _, err := Lattice(bad); err == nil {
			t.Errorf("Lattice(%d) accepted", bad)
		}
	}
}
