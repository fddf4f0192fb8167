package bfs

import (
	"testing"

	"crossbfs/internal/graph"
)

// firstUsable returns the first non-isolated vertex — the smallest
// valid BFS source for graphs whose vertex 0 may be isolated.
func firstUsable(t *testing.T, g *graph.CSR) int32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	t.Fatal("graph has no non-isolated vertex")
	return 0
}

// exactSame is the strict, field-by-field form of sameTraversal, for
// deterministic (Workers: 1) engines where even Parent tie-breaks and
// the per-step logs must match.
func exactSame(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: Source = %d, want %d", name, got.Source, want.Source)
	}
	if len(got.Parent) != len(want.Parent) || len(got.Level) != len(want.Level) {
		t.Fatalf("%s: map sizes differ: parent %d/%d level %d/%d",
			name, len(got.Parent), len(want.Parent), len(got.Level), len(want.Level))
	}
	for v := range want.Parent {
		if got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: Parent[%d] = %d, want %d", name, v, got.Parent[v], want.Parent[v])
		}
		if got.Level[v] != want.Level[v] {
			t.Fatalf("%s: Level[%d] = %d, want %d", name, v, got.Level[v], want.Level[v])
		}
	}
	if len(got.Directions) != len(want.Directions) {
		t.Fatalf("%s: %d direction entries, want %d", name, len(got.Directions), len(want.Directions))
	}
	for i := range want.Directions {
		if got.Directions[i] != want.Directions[i] {
			t.Fatalf("%s: Directions[%d] = %s, want %s", name, i, got.Directions[i], want.Directions[i])
		}
	}
	if len(got.StepScans) != len(want.StepScans) {
		t.Fatalf("%s: %d step-scan entries, want %d", name, len(got.StepScans), len(want.StepScans))
	}
	for i := range want.StepScans {
		if got.StepScans[i] != want.StepScans[i] {
			t.Fatalf("%s: StepScans[%d] = %d, want %d", name, i, got.StepScans[i], want.StepScans[i])
		}
	}
	if got.VisitedCount != want.VisitedCount {
		t.Fatalf("%s: VisitedCount = %d, want %d", name, got.VisitedCount, want.VisitedCount)
	}
	if got.TraversedEdges != want.TraversedEdges {
		t.Fatalf("%s: TraversedEdges = %d, want %d", name, got.TraversedEdges, want.TraversedEdges)
	}
}

// TestWorkspaceReuseMatchesFresh drives one workspace through a
// big -> small -> big graph sequence under every deterministic engine
// and demands bit-identical agreement with fresh-workspace runs. Any
// state leaking across traversals — a stale parent, an unshrunk level
// map, an uncleaned bitmap word, a leftover Directions entry — shows
// up as a field mismatch.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	big := testRMAT(t, 11, 8, 3)
	small := mustBuild(t, 40, []graph.Edge{
		// Two components plus isolated tail vertices: unreachable slots
		// are exactly where stale state from the big graph would leak.
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3},
		{From: 10, To: 11}, {From: 11, To: 12},
	})
	engines := []Engine{
		SerialEngine(),
		TopDownEngine(1),
		BottomUpEngine(1),
		EdgeParallelEngine(1),
		HybridEngine(64, 64, 1),
		BeamerEngine(0, 0, 1),
		HongEngine(1),
	}
	runs := []struct {
		name string
		g    *graph.CSR
		src  int32
	}{
		{"big", big, firstUsable(t, big)},
		{"small", small, 0},
		{"big-again", big, firstUsable(t, big)},
	}
	for _, e := range engines {
		ws := NewWorkspace(16) // deliberately undersized: ensure() must grow it
		for _, rn := range runs {
			got, err := e.Run(rn.g, rn.src, ws)
			if err != nil {
				t.Fatalf("%s/%s: reused ws: %v", e.Name(), rn.name, err)
			}
			want, err := e.Run(rn.g, rn.src, nil)
			if err != nil {
				t.Fatalf("%s/%s: fresh ws: %v", e.Name(), rn.name, err)
			}
			exactSame(t, e.Name()+"/"+rn.name, want, got)
			if err := Validate(rn.g, got); err != nil {
				t.Fatalf("%s/%s: validate: %v", e.Name(), rn.name, err)
			}
		}
	}
}

// TestPoolRecycledWorkspaceNoLeak proves the pool-hygiene contract:
// a workspace that went through Put/Get carries nothing observable
// from its previous traversal.
func TestPoolRecycledWorkspaceNoLeak(t *testing.T) {
	big := testRMAT(t, 10, 8, 5)
	small := pathGraph(t, 9)
	pool := &WorkspacePool{}
	e := HybridEngine(64, 64, 1)

	ws := pool.Get(big.NumVertices())
	if _, err := e.Run(big, firstUsable(t, big), ws); err != nil {
		t.Fatal(err)
	}
	pool.Put(ws)

	// sync.Pool gives no recycling guarantee, so force the interesting
	// case too: reuse the very same workspace object directly.
	for i, ws2 := range []*Workspace{pool.Get(small.NumVertices()), ws} {
		got, err := e.Run(small, 0, ws2)
		if err != nil {
			t.Fatalf("recycled run %d: %v", i, err)
		}
		want, err := e.Run(small, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		exactSame(t, "recycled", want, got)
		if len(got.Parent) != small.NumVertices() {
			t.Fatalf("recycled result spans %d vertices, want %d", len(got.Parent), small.NumVertices())
		}
	}
}

func TestWorkspacePoolSizeClasses(t *testing.T) {
	pool := &WorkspacePool{}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 1000, 1 << 14} {
		ws := pool.Get(n)
		if ws.Capacity() < n {
			t.Fatalf("Get(%d) returned capacity %d", n, ws.Capacity())
		}
		pool.Put(ws)
	}
}

// TestRunAllocsSteadyState is the acceptance gate for pooling: after
// warmup, a hybrid traversal of the SCALE-12 R-MAT graph through a
// reused workspace must allocate ~nothing — at least a 95% reduction
// against the fresh-buffers path — and a parallel traversal allocates
// only its helper goroutines.
func TestRunAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on a scale-12 graph")
	}
	g := testRMAT(t, 12, 8, 7)
	src := firstUsable(t, g)
	// Workers: 1 keeps the kernels on their serial paths;
	// testing.AllocsPerRun pins GOMAXPROCS to 1 anyway.
	opts := Options{Policy: MN{M: 64, N: 64}, Workers: 1}
	ws := NewWorkspace(g.NumVertices())
	run := func() {
		if _, err := RunWith(g, src, opts, ws); err != nil {
			t.Fatal(err)
		}
	}
	run() // warmup: grow queues and shards to this graph's working set
	run()

	pooled := testing.AllocsPerRun(5, run)
	unpooled := testing.AllocsPerRun(5, func() {
		if _, err := Run(g, src, opts); err != nil {
			t.Fatal(err)
		}
	})
	if unpooled < 5 {
		t.Fatalf("unpooled baseline allocates only %.0f objects/run; measurement is broken", unpooled)
	}
	if pooled > unpooled*0.05 {
		t.Errorf("pooled traversal allocates %.0f objects/run vs %.0f unpooled (%.1f%% — want >=95%% reduction)",
			pooled, unpooled, 100*(1-pooled/unpooled))
	}
	if pooled > 4 {
		t.Errorf("pooled traversal allocates %.0f objects/run after warmup; want ~0", pooled)
	}

	// Workers: 2 on graphs whose levels really fan out: a bottom-up
	// traversal of Lattice(256) from its centre fans out every one of
	// its 256 levels, and the hybrid on a scale-16 R-MAT fans out its
	// bottom-up levels.
	// Starting the team's one helper costs an allocation per traversal;
	// dispatching a level must cost none, so both graphs stay within the
	// helper count however many levels they run.
	const workers, helpers = 2, 1
	lattice, err := graph.Lattice(256)
	if err != nil {
		t.Fatal(err)
	}
	fanned := []struct {
		name   string
		g      *graph.CSR
		policy Policy
	}{
		{"lattice256/bottomup", lattice, AlwaysBottomUp},
		{"rmat16/hybrid", testRMAT(t, 16, 8, 7), MN{M: 64, N: 64}},
	}
	for _, tc := range fanned {
		src := int32(tc.g.NumVertices()/2 + 128) // the lattice's centre
		if tc.g.Degree(src) == 0 {
			src = firstUsable(t, tc.g)
		}
		ws := NewWorkspace(tc.g.NumVertices())
		var rec levelRecorder
		opts := Options{Policy: tc.policy, Workers: workers, Recorder: &rec}
		if _, err := RunWith(tc.g, src, opts, ws); err != nil {
			t.Fatal(err)
		}
		if rec.fanned() == 0 {
			t.Fatalf("workers=2 %s: no level fanned out; the gate would measure the serial path", tc.name)
		}
		opts.Recorder = nil
		run := func() {
			if _, err := RunWith(tc.g, src, opts, ws); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1, run)
		t.Logf("workers=2 %s: %.0f allocs per traversal, %d of %d levels fanned out", tc.name, allocs, rec.fanned(), len(rec.levels))
		if allocs > helpers {
			t.Errorf("workers=2 %s: %.0f allocs per traversal; want <= %d (one per helper)", tc.name, allocs, helpers)
		}
	}
}
