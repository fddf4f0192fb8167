package crossbfs

import (
	"context"
	"path/filepath"
	"testing"
)

func TestGenerateAndBFS(t *testing.T) {
	g, err := GenerateRMAT(10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	src := firstSource(t, g)
	res, err := BFS(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, res); err != nil {
		t.Fatalf("hybrid result invalid: %v", err)
	}

	td, err := BFSTopDown(g, src)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := BFSBottomUp(g, src)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := BFSHybrid(g, src, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Level {
		if td.Level[v] != res.Level[v] || bu.Level[v] != res.Level[v] || hy.Level[v] != res.Level[v] {
			t.Fatalf("engines disagree at vertex %d", v)
		}
	}
}

func TestBuildGraphFacade(t *testing.T) {
	g, err := BuildGraph(3, []Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want 4 (symmetrized)", g.NumEdges())
	}
}

func TestSaveLoadGraphFacade(t *testing.T) {
	g, err := GenerateRMAT(8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := SaveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != g.NumEdges() {
		t.Error("round trip changed the graph")
	}
}

func TestSimulatePlans(t *testing.T) {
	g, err := GenerateRMAT(11, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := firstSource(t, g)
	plans := []Plan{
		NewBaseline(GPU(), TopDown),
		NewBaseline(CPU(), BottomUp),
		NewCombination(MIC(), 64, 64),
		NewCrossPlan(CPU(), GPU(), 64, 64, 64, 64),
	}
	for _, plan := range plans {
		timing, err := Simulate(g, src, plan)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name(), err)
		}
		if timing.Total <= 0 || timing.GTEPS() <= 0 {
			t.Errorf("%s: degenerate timing %+v", plan.Name(), timing)
		}
	}
}

func TestBenchmarkTEPSFacade(t *testing.T) {
	g, err := GenerateRMAT(10, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BenchmarkTEPS(g, NewCombination(CPU(), 64, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumRoots != 4 || rep.GTEPS() <= 0 {
		t.Errorf("report: %+v", rep)
	}
}

// A ShardedPlan is a Plan, but pricing it needs the partitioned
// engine's exchange volumes, which a bare trace lacks: the trace-only
// entry points must report that as an error, never a nil Timing.
func TestShardedPlanNeedsExchanges(t *testing.T) {
	g, err := GenerateRMAT(10, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := ShardedPlan{Device: CPU(), Ranks: 2, Fabric: EthernetFabric(2), M: 14, N: 24}
	src := firstSource(t, g)
	if timing, err := Simulate(g, src, plan); err == nil {
		t.Errorf("Simulate = %+v, nil; want an error", timing)
	}
	if rep, err := BenchmarkTEPS(g, plan, 2); err == nil {
		t.Errorf("BenchmarkTEPS = %+v, nil; want an error", rep)
	}
	res, err := BFS(g, src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ComputeTrace(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if timing := SimulateTrace(tr, plan, PCIe()); timing != nil {
		t.Errorf("SimulateTrace = %+v, want nil", timing)
	}
	if _, timing, err := SimulateSharded(context.Background(), g, src, plan); err != nil || timing == nil {
		t.Errorf("SimulateSharded: timing %v, err %v", timing, err)
	}
}

func TestAdaptivePipelineFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	model, err := TrainDefaultModel(nil)
	if err != nil {
		t.Fatal(err)
	}

	params := RMATParams{Scale: 12, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: 5, Permute: true}
	g, err := GenerateRMATWith(params)
	if err != nil {
		t.Fatal(err)
	}
	point := PredictSwitchPoint(model, params, g, CPU(), GPU())
	if point.M < 1 || point.N < 1 {
		t.Errorf("predicted switch point %v out of range", point)
	}
	plan, err := NewAdaptiveCrossPlan(model, params, g, CPU(), GPU())
	if err != nil {
		t.Fatal(err)
	}
	timing, err := Simulate(g, firstSource(t, g), plan)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Total <= 0 {
		t.Error("adaptive plan produced degenerate timing")
	}
	if _, err := NewAdaptiveCrossPlan(nil, params, g, CPU(), GPU()); err == nil {
		t.Error("nil model accepted")
	}

	// Persistence via the facade.
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	p2 := PredictSwitchPoint(loaded, params, g, CPU(), GPU())
	if p2 != point {
		t.Errorf("loaded model predicts %v, original %v", p2, point)
	}
}

func TestComputeTraceFacade(t *testing.T) {
	g, err := GenerateRMAT(9, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := firstSource(t, g)
	res, err := BFS(g, src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ComputeTrace(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reachable != res.VisitedCount {
		t.Error("trace and result disagree")
	}
	timing := SimulateTrace(tr, NewCombination(GPU(), 64, 64), PCIe())
	if timing.Total <= 0 {
		t.Error("degenerate timing from trace")
	}
}

func firstSource(t *testing.T, g *Graph) int32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	t.Fatal("no edges in graph")
	return 0
}
