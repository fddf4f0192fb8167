package main

import (
	"testing"

	"crossbfs/internal/bfs"
	"crossbfs/internal/graph"
	"crossbfs/internal/serve"
)

// path builds 0-1-2-3 plus an isolated vertex 4.
func path(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.Build(5, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReachCheckerRejectsDoctoredDistance(t *testing.T) {
	level := refLevels(path(t), 0)
	q := serve.Query{Kind: serve.KindReach, Source: 0, Target: 3}
	yes, no := true, false
	if err := checkReach(level, q, &serve.Response{Reachable: &yes, Distance: 3}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkReach(level, q, &serve.Response{Reachable: &yes, Distance: 2}); err == nil {
		t.Fatal("doctored distance accepted")
	}
	if err := checkReach(level, q, &serve.Response{Reachable: &no, Distance: -1}); err == nil {
		t.Fatal("doctored reachability accepted")
	}
	q.Target = 4
	if err := checkReach(level, q, &serve.Response{Reachable: &no, Distance: -1}); err != nil {
		t.Fatalf("unreachable target rejected: %v", err)
	}
}

func TestMultiCheckerRejectsDoctoredSummary(t *testing.T) {
	level := refLevels(path(t), 1)
	if err := checkMultiRoot(level, 1, serve.SourceResult{Source: 1, Visited: 4, Depth: 2}); err != nil {
		t.Fatalf("correct summary rejected: %v", err)
	}
	if err := checkMultiRoot(level, 1, serve.SourceResult{Source: 1, Visited: 4, Depth: 3}); err == nil {
		t.Fatal("doctored depth accepted")
	}
}

func TestTraversalCheckerRejectsDoctoredResult(t *testing.T) {
	g := path(t)
	r, err := bfs.SerialEngine().Run(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := validateRoot(g, r)
	if err != nil {
		t.Fatalf("serial traversal failed validation: %v", err)
	}
	if err := checkTraversal(g, want, r); err != nil {
		t.Fatalf("validated traversal rejected: %v", err)
	}
	bad := r.Clone()
	bad.Level[3] = 2
	if err := checkTraversal(g, want, bad); err == nil {
		t.Fatal("doctored level accepted")
	}
	bad = r.Clone()
	bad.Parent[3] = 1 // right level map, but 1-3 is not an edge
	if err := checkTraversal(g, want, bad); err == nil {
		t.Fatal("parent without an edge accepted")
	}
}
