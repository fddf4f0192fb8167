package crossbfs

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's per-experiment index), plus ablation benches for the
// design decisions the simulator rests on. Each bench regenerates its
// experiment through the same drivers cmd/experiments uses and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation.

import (
	"context"
	"sync"
	"testing"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/exp"
	"crossbfs/internal/graph"
	"crossbfs/internal/rmat"
	"crossbfs/internal/tuner"
)

// benchCfg keeps bench iterations affordable; the CLI defaults are
// one scale larger.
var benchCfg = exp.Config{Scale: 15, EdgeFactor: 16, Seed: 1, NumRoots: 4}

// Shared fixtures, built once.
var (
	fixtureOnce  sync.Once
	fixtureGraph *graph.CSR
	fixtureTrace *bfs.Trace
	fixtureErr   error
)

func fixture(b *testing.B) (*graph.CSR, *bfs.Trace) {
	b.Helper()
	fixtureOnce.Do(func() {
		p := rmat.DefaultParams(benchCfg.Scale, benchCfg.EdgeFactor)
		fixtureGraph, fixtureErr = rmat.Generate(p)
		if fixtureErr != nil {
			return
		}
		var src int32
		for v := 0; v < fixtureGraph.NumVertices(); v++ {
			if fixtureGraph.Degree(int32(v)) > 0 {
				src = int32(v)
				break
			}
		}
		fixtureTrace, fixtureErr = bfs.TraceFrom(fixtureGraph, src)
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureGraph, fixtureTrace
}

var (
	modelOnce sync.Once
	benchModl *tuner.Model
	modelErr  error
)

func benchModel(b *testing.B) *tuner.Model {
	b.Helper()
	modelOnce.Do(func() {
		spec := tuner.DefaultCorpusSpec()
		spec.Scales = []int{11, 12} // keep the one-time cost small
		var samples []tuner.Labeled
		samples, modelErr = tuner.BuildCorpus(spec, nil)
		if modelErr != nil {
			return
		}
		benchModl, modelErr = tuner.Train(samples, tuner.TrainOptions{})
	})
	if modelErr != nil {
		b.Fatal(modelErr)
	}
	return benchModl
}

// BenchmarkFig1FrontierVertices regenerates Fig. 1 (per-level |V|cq
// across scales) and reports the peak frontier fraction.
func BenchmarkFig1FrontierVertices(b *testing.B) {
	b.ReportAllocs()
	var peakFrac float64
	for i := 0; i < b.N; i++ {
		profiles, err := exp.FrontierProfiles([]int{12, 13, 14}, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := profiles[len(profiles)-1]
		var peak, total int64
		for _, s := range last.Steps {
			if s.FrontierVertices > peak {
				peak = s.FrontierVertices
			}
			total += s.FrontierVertices
		}
		peakFrac = float64(peak) / float64(total)
	}
	b.ReportMetric(peakFrac, "peak-frontier-frac")
}

// BenchmarkFig2FrontierEdges regenerates Fig. 2 (per-level |E|cq).
func BenchmarkFig2FrontierEdges(b *testing.B) {
	b.ReportAllocs()
	var peakFrac float64
	for i := 0; i < b.N; i++ {
		profiles, err := exp.FrontierProfiles([]int{12, 13, 14}, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := profiles[len(profiles)-1]
		var peak, total int64
		for _, s := range last.Steps {
			if s.FrontierEdges > peak {
				peak = s.FrontierEdges
			}
			total += s.FrontierEdges
		}
		peakFrac = float64(peak) / float64(total)
	}
	b.ReportMetric(peakFrac, "peak-edge-frac")
}

// BenchmarkFig3DirectionTimes regenerates Fig. 3 and reports how many
// levels bottom-up wins.
func BenchmarkFig3DirectionTimes(b *testing.B) {
	b.ReportAllocs()
	var buWins int
	for i := 0; i < b.N; i++ {
		rows, err := exp.DirectionComparison(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		buWins = 0
		for _, r := range rows {
			if r.BottomUp < r.TopDown {
				buWins++
			}
		}
	}
	b.ReportMetric(float64(buWins), "bu-wins-levels")
}

// BenchmarkTable3BestM regenerates Table III (exhaustive best M per
// graph) and reports the spread of best M across graphs.
func BenchmarkTable3BestM(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.BestSwitchingPoints([]int{12, 13}, []int{16, 32}, 1)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := rows[0].BestM, rows[0].BestM
		for _, r := range rows {
			if r.BestM < lo {
				lo = r.BestM
			}
			if r.BestM > hi {
				hi = r.BestM
			}
		}
		spread = hi / lo
	}
	b.ReportMetric(spread, "bestM-spread")
}

// BenchmarkFig8Strategies regenerates Fig. 8 (Random / Average /
// Regression / Exhaustive) and reports the regression quality
// (paper: >= 95% of exhaustive).
func BenchmarkFig8Strategies(b *testing.B) {
	b.ReportAllocs()
	model := benchModel(b)
	b.ResetTimer()
	var quality float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.StrategyComparison(benchCfg, model, []int{13}, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		quality = rows[0].RegressionQuality()
	}
	b.ReportMetric(quality*100, "regression-quality-%")
}

// BenchmarkTable4StepByStep regenerates Table IV and reports the
// cross-architecture speedup over GPUTD (the paper's 36.1x cell).
func BenchmarkTable4StepByStep(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := exp.StepByStepOptimization(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = t.Timings[0].Total / t.Timings[len(t.Timings)-1].Total
	}
	b.ReportMetric(speedup, "cross-over-GPUTD-x")
}

// BenchmarkTable5CrossSpeedup regenerates Table V and reports the mean
// speedup (paper: average 64x).
func BenchmarkTable5CrossSpeedup(b *testing.B) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.CrossSpeedups(benchCfg, [][2]int{{14, 16}, {14, 32}, {15, 16}})
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.Speedup
		}
		mean /= float64(len(rows))
	}
	b.ReportMetric(mean, "mean-speedup-x")
}

// BenchmarkFig9Combinations regenerates Fig. 9 and reports the mean
// cross-architecture speedup over the MIC combination (paper: 8.5x).
func BenchmarkFig9Combinations(b *testing.B) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.CombinationComparison(benchCfg, [][2]int{{15, 16}, {15, 32}})
		if err != nil {
			b.Fatal(err)
		}
		mean = 0
		for _, r := range rows {
			mean += r.SpeedupOverMIC
		}
		mean /= float64(len(rows))
	}
	b.ReportMetric(mean, "cross-over-MIC-x")
}

// BenchmarkFig10StrongScaling regenerates Fig. 10a and reports the
// CPU's 1-to-8-core speedup.
func BenchmarkFig10StrongScaling(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.StrongScaling(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var first, last float64
		for _, r := range rows {
			if r.Arch == "CPU" {
				if first == 0 {
					first = r.GTEPS
				}
				last = r.GTEPS
			}
		}
		ratio = last / first
	}
	b.ReportMetric(ratio, "cpu-8c-over-1c-x")
}

// BenchmarkFig10WeakScaling regenerates Fig. 10b and reports the CPU
// weak-scaling growth.
func BenchmarkFig10WeakScaling(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.WeakScaling(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var first, last float64
		for _, r := range rows {
			if r.Arch == "CPU" {
				if first == 0 {
					first = r.GTEPS
				}
				last = r.GTEPS
			}
		}
		ratio = last / first
	}
	b.ReportMetric(ratio, "cpu-weak-growth-x")
}

// BenchmarkTable6AvgPerformance regenerates Table VI and reports the
// large-size CPU/GPU ratio (paper: CPU overtakes at 8M vertices).
func BenchmarkTable6AvgPerformance(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.AveragePerformance(benchCfg, []int{14, 18})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		ratio = last.CPU / last.GPU
	}
	b.ReportMetric(ratio, "large-CPU-over-GPU-x")
}

// BenchmarkComparisonGraph500Ref regenerates the §V-D comparison and
// reports the cross-architecture speedup over the Graph 500 reference
// (paper: 16-63x, average 29x).
func BenchmarkComparisonGraph500Ref(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.ExternalComparisons(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "CPUTD+GPUCB vs Graph500 reference" {
				speedup = r.Speedup
			}
		}
	}
	b.ReportMetric(speedup, "cross-over-ref-x")
}

// ---- Ablation benches (DESIGN.md §5) ----

// BenchmarkAblationReplayVsRerun/replay evaluates 1000 switching
// points by replaying one trace; .../rerun re-traverses the graph per
// candidate. The gap is why exhaustive labelling is affordable.
func BenchmarkAblationReplayVsRerun(b *testing.B) {
	b.ReportAllocs()
	g, tr := fixture(b)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	candidates := tuner.DefaultCandidates()

	b.Run("replay-1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tuner.Evaluate(tr, cpu, gpu, link, candidates); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rerun-10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cand := range candidates[:10] {
				if _, err := bfs.Hybrid(g, tr.Source, cand.M, cand.N, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationFlatUtilization removes the utilization curve
// (every kernel runs at peak regardless of parallelism) and reports
// how far the cross-architecture advantage falls — the paper's §III-A
// argument that parallelism differences drive the split.
func BenchmarkAblationFlatUtilization(b *testing.B) {
	b.ReportAllocs()
	_, tr := fixture(b)
	link := archsim.PCIe()
	flat := func(a archsim.Arch) archsim.Arch {
		a.HalfUtil = 0
		a.ThreadRate = a.TDRate // no critical path either
		return a
	}
	var normal, ablated float64
	for i := 0; i < b.N; i++ {
		cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
		cross := core.CrossPlan{Host: cpu, Coprocessor: gpu, M1: 64, N1: 64, M2: 64, N2: 64}
		gpucb := core.Combination(gpu, 64, 64)
		normal = core.Simulate(tr, gpucb, link).Total / core.Simulate(tr, cross, link).Total

		fcpu, fgpu := flat(cpu), flat(gpu)
		fcross := core.CrossPlan{Host: fcpu, Coprocessor: fgpu, M1: 64, N1: 64, M2: 64, N2: 64}
		fgpucb := core.Combination(fgpu, 64, 64)
		ablated = core.Simulate(tr, fgpucb, link).Total / core.Simulate(tr, fcross, link).Total
	}
	b.ReportMetric(normal, "cross-adv-normal-x")
	b.ReportMetric(ablated, "cross-adv-flat-x")
}

// BenchmarkAblationNoEarlyExit prices bottom-up as if every unvisited
// vertex scanned its whole list (the paper's |E|un upper bound) and
// reports the slowdown relative to exact early-exit scan counts.
func BenchmarkAblationNoEarlyExit(b *testing.B) {
	b.ReportAllocs()
	_, tr := fixture(b)
	gpu := archsim.KeplerK20x()
	link := archsim.PCIe()
	noExit := *tr
	noExit.Steps = append([]bfs.LevelStats(nil), tr.Steps...)
	for i := range noExit.Steps {
		noExit.Steps[i].BottomUpScans = noExit.Steps[i].UnvisitedEdges
	}
	plan := core.Combination(gpu, 64, 64)
	var slowdown float64
	for i := 0; i < b.N; i++ {
		exact := core.Simulate(tr, plan, link).Total
		bound := core.Simulate(&noExit, plan, link).Total
		slowdown = bound / exact
	}
	b.ReportMetric(slowdown, "no-early-exit-slowdown-x")
}

// BenchmarkAblationFreeTransfers removes the PCIe cost and reports how
// much of the mistuned-switching-point spread it was responsible for.
func BenchmarkAblationFreeTransfers(b *testing.B) {
	b.ReportAllocs()
	_, tr := fixture(b)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	sweep := []float64{1, 4, 16, 64, 256, 1024}
	spread := func(link archsim.Link) float64 {
		best, worst := -1.0, 0.0
		for _, m1 := range sweep {
			for _, m2 := range sweep {
				t := core.Simulate(tr, core.CrossPlan{
					Host: cpu, Coprocessor: gpu,
					M1: m1, N1: m1, M2: m2, N2: m2,
				}, link).Total
				if best < 0 || t < best {
					best = t
				}
				if t > worst {
					worst = t
				}
			}
		}
		return worst / best
	}
	var paid, free float64
	for i := 0; i < b.N; i++ {
		paid = spread(archsim.PCIe())
		free = spread(archsim.SameDevice())
	}
	b.ReportMetric(paid, "spread-pcie-x")
	b.ReportMetric(free, "spread-free-x")
}

// BenchmarkAblationLazyTransfers compares eager handoffs (everything
// blocks) with lazy ones (predecessor entries stream behind kernels)
// on a mistuned late switch over a stressed link, reporting how much
// transfer time a smarter runtime hides.
func BenchmarkAblationLazyTransfers(b *testing.B) {
	b.ReportAllocs()
	_, tr := fixture(b)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	slow := archsim.Link{BandwidthGBs: 0.5, LatencySeconds: 15e-6}
	plan := core.CrossPlan{Host: cpu, Coprocessor: gpu, M1: 10, N1: 10, M2: 64, N2: 64}
	var eager, lazy float64
	for i := 0; i < b.N; i++ {
		eager = core.Simulate(tr, plan, slow).Transfers
		t, err := core.Price(tr, plan, core.PriceOptions{Link: slow, Lazy: true})
		if err != nil {
			b.Fatal(err)
		}
		lazy = t.Transfers
	}
	b.ReportMetric(eager*1e3, "eager-transfer-ms")
	b.ReportMetric(lazy*1e3, "lazy-transfer-ms")
}

// BenchmarkExtensionMultiCoprocessor sweeps 1-3 simulated GPUs on the
// partitioned bottom-up extension and reports the 3-device speedup.
func BenchmarkExtensionMultiCoprocessor(b *testing.B) {
	b.ReportAllocs()
	_, tr := fixture(b)
	cpu, gpu := archsim.SandyBridge(), archsim.KeplerK20x()
	link := archsim.PCIe()
	var speedup float64
	for i := 0; i < b.N; i++ {
		var one, three float64
		for _, k := range []int{1, 3} {
			cops := make([]archsim.Arch, k)
			for j := range cops {
				cops[j] = gpu
			}
			timing, err := core.Price(tr, core.MultiCross{
				Host: cpu, Coprocessors: cops, M1: 64, N1: 64, M2: 300, N2: 300,
			}, core.PriceOptions{Link: link})
			if err != nil {
				b.Fatal(err)
			}
			if k == 1 {
				one = timing.Total
			} else {
				three = timing.Total
			}
		}
		speedup = one / three
	}
	b.ReportMetric(speedup, "3gpu-over-1gpu-x")
}

// BenchmarkExtensionHeuristics compares the paper's tuned (M, N) rule
// against the SC'12 alpha/beta and PACT'11 heuristics (extension
// table; `experiments -run heuristics`) and reports the oracle's gain
// over the best alternative.
func BenchmarkExtensionHeuristics(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.HeuristicComparison(benchCfg, [][2]int{{14, 16}})
		if err != nil {
			b.Fatal(err)
		}
		gain = rows[0].OracleGain
	}
	b.ReportMetric(gain, "oracle-gain-x")
}

// BenchmarkAdaptiveOverhead measures the paper's "<0.1% of execution
// time" claim: the cost of one online (M, N) prediction against the
// cost of the traversal it tunes.
func BenchmarkAdaptiveOverhead(b *testing.B) {
	b.ReportAllocs()
	model := benchModel(b)
	_, tr := fixture(b)
	sample := tuner.Sample{
		Graph: tuner.GraphInfo{NumVertices: float64(tr.NumVertices), NumEdges: float64(tr.NumEdges), A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		TD:    tuner.ArchInfoOf(archsim.SandyBridge()),
		BU:    tuner.ArchInfoOf(archsim.KeplerK20x()),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(sample)
	}
}

// BenchmarkEndToEndAdaptive runs the complete online path: predict
// thresholds, execute the real traversal, price it.
func BenchmarkEndToEndAdaptive(b *testing.B) {
	b.ReportAllocs()
	model := benchModel(b)
	g, tr := fixture(b)
	sample := tuner.Sample{
		Graph: tuner.GraphInfo{NumVertices: float64(tr.NumVertices), NumEdges: float64(tr.NumEdges), A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		TD:    tuner.ArchInfoOf(archsim.SandyBridge()),
		BU:    tuner.ArchInfoOf(archsim.KeplerK20x()),
	}
	b.ResetTimer()
	var gteps float64
	for i := 0; i < b.N; i++ {
		p := model.Predict(sample)
		plan := core.CrossPlan{
			Host: archsim.SandyBridge(), Coprocessor: archsim.KeplerK20x(),
			M1: p.M, N1: p.N, M2: p.M, N2: p.N,
		}
		_, _, timing, err := core.Execute(context.Background(), g, tr.Source, plan,
			core.ExecOptions{Link: archsim.PCIe()})
		if err != nil {
			b.Fatal(err)
		}
		gteps = timing.GTEPS()
	}
	b.ReportMetric(gteps, "GTEPS")
}
