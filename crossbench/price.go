package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/core"
	"crossbfs/internal/graph"
	"crossbfs/internal/graph500"
	"crossbfs/internal/xmath"
)

// Pricing runs on a fixed subset of roots, independent of -seed, so
// its simulated GTEPS is a constant the benchmark can check.
const (
	pricedRoots = 4
	pricedSeed  = 1
	// priceReps repeats each Simulate call so its microsecond-scale
	// cost is timed over a measurable interval.
	priceReps = 20
)

// expectedFile holds the CPUTD+GPUCB simulated GTEPS (harmonic mean
// over the priced roots) that each workload's graph must reproduce.
const expectedFile = "crossbench/expected.json"

// crossPlan is the paper's CPUTD+GPUCB plan at the default thresholds.
func crossPlan() core.CrossPlan {
	return core.CrossPlan{
		Host: archsim.SandyBridge(), Coprocessor: archsim.KeplerK20x(),
		M1: bfs.DefaultM, N1: bfs.DefaultN, M2: bfs.DefaultM, N2: bfs.DefaultN,
	}
}

// price traces and prices the fixed roots through bfs.ComputeTrace and
// core.Simulate, outside any timed window. It records core.trace_ms and
// core.price_us, spans when log is non-nil, and counts a failure when
// the simulated GTEPS differs from the stored value.
func price(workload string, g *graph.CSR, o *outcome, log *spanLog) error {
	roots := graph500.SampleRoots(g, pricedRoots, pricedSeed)
	plan := crossPlan()
	link := archsim.PCIe()
	var gteps, traceMS, priceUS []float64
	for i, root := range roots {
		r, err := bfs.SerialEngine().Run(g, root, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		tr, err := bfs.ComputeTrace(g, r)
		t1 := time.Now()
		if err != nil {
			return err
		}
		var tm *core.Timing
		for k := 0; k < priceReps; k++ {
			tm = core.Simulate(tr, plan, link)
		}
		t2 := time.Now()
		gteps = append(gteps, tm.GTEPS())
		traceMS = append(traceMS, float64(t1.Sub(t0))/1e6)
		priceUS = append(priceUS, float64(t2.Sub(t1))/1e3/priceReps)
		if log != nil {
			group := uint64(1<<32 + i)
			p := log.add(group, "pricing", t0, t2, -1)
			log.add(group, "core.trace", t0, t1, p)
			log.add(group, "core.price", t1, t2, p)
		}
	}
	o.set("core.trace_ms", xmath.Mean(traceMS), len(traceMS))
	o.set("core.price_us", xmath.Mean(priceUS), len(priceUS)*priceReps)
	o.attempted++
	got := xmath.HarmonicMean(gteps)
	want, err := expectedGTEPS(workload)
	if err != nil {
		return err
	}
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		o.fail(fmt.Errorf("%s simulated GTEPS %.17g, %s holds %.17g", plan.Name(), got, expectedFile, want))
	}
	return nil
}

func expectedGTEPS(workload string) (float64, error) {
	b, err := os.ReadFile(expectedFile)
	if err != nil {
		return 0, err
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("%s: %w", expectedFile, err)
	}
	v, ok := m[workload]
	if !ok {
		return 0, fmt.Errorf("%s has no value for %s", expectedFile, workload)
	}
	return v, nil
}
