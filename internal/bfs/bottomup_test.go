package bfs

import (
	"slices"
	"testing"

	"crossbfs/internal/graph"
	"crossbfs/internal/xrand"
)

// holeyGraph builds an n-vertex graph in which every stride-th vertex
// (v%stride == 0) is edgeless, so edgeless and live vertices interleave
// inside every bitmap word. The live vertices form one component: a
// path through them in order plus about 2 random edges each. With link
// set, each of those edgeless vertices is joined to a live neighbour
// instead, so a vertex that is edgeless in the unlinked graph has an
// edge in the linked one.
func holeyGraph(t *testing.T, n, stride int, seed uint64, link bool) *graph.CSR {
	t.Helper()
	rng := xrand.New(seed)
	var live []int32
	for v := 0; v < n; v++ {
		if v%stride != 0 {
			live = append(live, int32(v))
		}
	}
	var edges []graph.Edge
	for i := 1; i < len(live); i++ {
		edges = append(edges, graph.Edge{From: live[i-1], To: live[i]})
	}
	for range 2 * len(live) {
		edges = append(edges, graph.Edge{From: live[rng.Intn(len(live))], To: live[rng.Intn(len(live))]})
	}
	if link {
		for v := 0; v < n; v += stride {
			u := v + 1
			if u >= n {
				u = v - 1
			}
			edges = append(edges, graph.Edge{From: int32(v), To: int32(u)})
		}
	}
	return mustBuild(t, n, edges)
}

// recount is the O(V) pass the engines no longer make: the visited
// vertices and the sum of their degrees, read off the level map.
func recount(g *graph.CSR, r *Result) (visited, traversed int64) {
	for v, l := range r.Level {
		if l != NotVisited {
			visited++
			traversed += g.Degree(int32(v))
		}
	}
	return visited, traversed
}

// checkBottomUpRun compares got with the serial reference and checks
// its counts against a recount, and, when every step ran bottom-up,
// its per-step scans against ComputeTrace.
func checkBottomUpRun(t *testing.T, name string, g *graph.CSR, want, got *Result) {
	t.Helper()
	sameTraversal(t, name, want, got)
	if err := Validate(g, got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if v, e := recount(g, got); got.VisitedCount != v || got.TraversedEdges != e {
		t.Fatalf("%s: counts (%d, %d), recount (%d, %d)", name, got.VisitedCount, got.TraversedEdges, v, e)
	}
	for _, d := range got.Directions {
		if d != BottomUp {
			return
		}
	}
	tr, err := ComputeTrace(g, got)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tr.Steps) != len(got.StepScans) {
		t.Fatalf("%s: %d trace steps, %d kernel steps", name, len(tr.Steps), len(got.StepScans))
	}
	for i, s := range tr.Steps {
		if s.BottomUpScans != got.StepScans[i] {
			t.Fatalf("%s: step %d: kernel scanned %d, trace predicts %d", name, i+1, got.StepScans[i], s.BottomUpScans)
		}
	}
}

// TestBottomUpKernelEdgeCases runs the word-at-a-time kernel where its
// masks can go wrong: a lone vertex, sizes that are not a multiple of
// 64 (the last word's tail), edgeless vertices between live ones in
// every word, and an edgeless source. A policy that alternates the
// directions also checks that StepInfo.FrontierEdges — carried from
// the bottom-up kernel's degree sum into a top-down step — is the
// trace's |E|cq.
func TestBottomUpKernelEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.CSR
		src  int32
	}{
		{"one vertex", mustBuild(t, 1, nil), 0},
		{"n=65 path", pathGraph(t, 65), 64},
		{"n=130 stride 2", holeyGraph(t, 130, 2, 1, false), 1},
		{"n=1000 stride 3", holeyGraph(t, 1000, 3, 2, false), 1},
		{"n=1000 stride 3 linked", holeyGraph(t, 1000, 3, 2, true), 0},
		{"edgeless source", holeyGraph(t, 1000, 3, 3, false), 999},
		{"n=4097 stride 5", holeyGraph(t, 4097, 5, 4, false), 4096},
	}
	for _, c := range cases {
		want, err := Serial(c.g, c.src)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ComputeTrace(c.g, want)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			ws := NewWorkspace(c.g.NumVertices())
			got, err := RunWith(c.g, c.src, Options{Policy: AlwaysBottomUp, Workers: workers, CheckInvariants: true}, ws)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			checkBottomUpRun(t, c.name, c.g, want, got)

			var seen []int64
			alternate := PolicyFunc(func(s StepInfo) Direction {
				seen = append(seen, s.FrontierEdges)
				return Direction(s.Step % 2)
			})
			got, err = RunWith(c.g, c.src, Options{Policy: alternate, Workers: workers, CheckInvariants: true}, ws)
			if err != nil {
				t.Fatalf("%s workers=%d alternating: %v", c.name, workers, err)
			}
			checkBottomUpRun(t, c.name+" alternating", c.g, want, got)
			if len(seen) != len(tr.Steps) {
				t.Fatalf("%s: policy saw %d steps, trace has %d", c.name, len(seen), len(tr.Steps))
			}
			for i, s := range tr.Steps {
				if seen[i] != s.FrontierEdges {
					t.Fatalf("%s workers=%d step %d: policy saw |E|cq %d, trace has %d", c.name, workers, i+1, seen[i], s.FrontierEdges)
				}
			}
		}
	}
}

// TestBottomUpKernelFansOut covers the kernel in the grains of a
// fanned-out level: the graph has more than minFanGrains×buGrain
// vertices and a partial last word, so every bottom-up level splits
// across the team, and the result, the counts and the per-step scans
// must match the serial reference and the trace as they do at
// Workers 1.
func TestBottomUpKernelFansOut(t *testing.T) {
	n := minFanGrains*buGrain + 1000
	g := holeyGraph(t, n, 3, 5, false)
	want, err := Serial(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	var scans1 []int64
	for _, workers := range []int{1, 2} {
		var rec levelRecorder
		got, err := RunWith(g, 1, Options{Policy: AlwaysBottomUp, Workers: workers, Recorder: &rec}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkBottomUpRun(t, "fan-out", g, want, got)
		wantFanned := 0
		if workers > 1 {
			wantFanned = len(rec.levels)
		}
		if rec.fanned() != wantFanned {
			t.Fatalf("workers=%d: %d of %d levels fanned out, want %d", workers, rec.fanned(), len(rec.levels), wantFanned)
		}
		if workers == 1 {
			scans1 = append(scans1, got.StepScans...)
			continue
		}
		for i, s := range got.StepScans {
			if s != scans1[i] {
				t.Fatalf("step %d: %d scans at workers=2, %d at workers=1", i+1, s, scans1[i])
			}
		}
	}
}

// TestDeadMaskPoolHygiene runs one pooled workspace on graph A, then
// on graph B in which A's edgeless vertices have edges, then on A
// again. A dead mask carried over from A would hide B's vertices from
// the bottom-up kernel.
func TestDeadMaskPoolHygiene(t *testing.T) {
	n := minFanGrains*buGrain + 1000
	a := holeyGraph(t, n, 3, 6, false)
	b := holeyGraph(t, n, 3, 6, true)
	pool := &WorkspacePool{}
	for _, workers := range []int{1, 2} {
		ws := pool.Get(n)
		for i, g := range []*graph.CSR{a, b, a} {
			want, err := Serial(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g == b && want.VisitedCount != int64(n) {
				t.Fatalf("graph B reaches %d of %d vertices; the test needs all", want.VisitedCount, n)
			}
			got, err := RunWith(g, 1, Options{Policy: MN{M: 64, N: 64}, Workers: workers}, ws)
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, err)
			}
			checkBottomUpRun(t, "pooled", g, want, got)
			if !slices.Contains(got.Directions, BottomUp) {
				t.Fatalf("workers=%d run %d: no bottom-up step (%v)", workers, i, got.Directions)
			}
		}
		pool.Put(ws)
	}
}

// TestHybridFrontierEdgesMatchTrace checks the |E|cq the level loop now
// carries from step to step — the bottom-up kernel's degree sum or the
// top-down queue's — against ComputeTrace on R-MAT 16, level by level.
func TestHybridFrontierEdgesMatchTrace(t *testing.T) {
	g := testRMAT(t, 16, 8, 7)
	src := firstUsable(t, g)
	for _, workers := range []int{1, 2} {
		var rec levelRecorder
		r, err := RunWith(g, src, Options{Policy: MN{M: 64, N: 64}, Workers: workers, Recorder: &rec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ComputeTrace(g, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.levels) != len(tr.Steps) {
			t.Fatalf("workers=%d: %d level events, %d trace steps", workers, len(rec.levels), len(tr.Steps))
		}
		var bottomUp, afterBottomUp bool
		for i, e := range rec.levels {
			if e.FrontierEdges != tr.Steps[i].FrontierEdges {
				t.Errorf("workers=%d step %d (%s): event |E|cq %d, trace %d",
					workers, i+1, r.Directions[i], e.FrontierEdges, tr.Steps[i].FrontierEdges)
			}
			afterBottomUp = afterBottomUp || (bottomUp && r.Directions[i] == TopDown)
			bottomUp = bottomUp || r.Directions[i] == BottomUp
		}
		if !afterBottomUp {
			t.Fatalf("workers=%d: no top-down step follows a bottom-up one (%v)", workers, r.Directions)
		}
		if v, e := recount(g, r); r.VisitedCount != v || r.TraversedEdges != e {
			t.Fatalf("workers=%d: counts (%d, %d), recount (%d, %d)", workers, r.VisitedCount, r.TraversedEdges, v, e)
		}
	}
}
