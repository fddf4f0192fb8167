// Command experiments regenerates every table and figure of the
// paper's evaluation section.
//
//	experiments -run all
//	experiments -run table4 -scale 17 -edgefactor 16
//	experiments -run fig8
//
// Experiment ids: fig1, fig2, fig3, table3, fig8, table4, table5,
// fig9, fig10a, fig10b, table6, comparisons, faults, recovery, all.
// See EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"crossbfs/internal/archsim"
	"crossbfs/internal/exp"
	"crossbfs/internal/tuner"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment id (fig1, fig2, fig3, table3, fig8, table4, table5, fig9, fig10a, fig10b, table6, comparisons, heuristics, multi, sharded, realtable4, faults, recovery, all)")
		scale      = flag.Int("scale", 0, "override base SCALE (default 17)")
		edgeFactor = flag.Int("edgefactor", 0, "override base edge factor (default 16)")
		seed       = flag.Uint64("seed", 0, "override R-MAT seed (default 1)")
		numRoots   = flag.Int("roots", 0, "override Graph500 root count (default 16)")
		modelPath  = flag.String("model", "", "load a trained switching-point model (fig8) instead of training one")
		csvDir     = flag.String("csv", "", "also write figure data as <id>.csv files into this directory")
		timeout    = flag.Duration("timeout", 0, "abort the suite after this duration (0 = no limit); checked between experiments")
		faults     = flag.String("faults", "", "fault schedule for the faults experiment (default: built-in scenario ladder)")
		faultSeed  = flag.Uint64("faultseed", 1, "seed for transient-fault draws in the faults experiment")
		pprofAddr  = flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address during the suite")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registered itself on the default mux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof server:", err)
			}
		}()
		fmt.Printf("serving http://%s/debug/pprof\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := exp.Config{Scale: *scale, EdgeFactor: *edgeFactor, Seed: *seed, NumRoots: *numRoots}
	opts := runOpts{modelPath: *modelPath, csvDir: *csvDir, faultSpec: *faults, faultSeed: *faultSeed}
	if err := dispatch(ctx, *run, cfg, opts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runOpts carries the per-invocation extras that are not experiment
// parameters proper.
type runOpts struct {
	modelPath string
	csvDir    string
	faultSpec string
	faultSeed uint64
}

func dispatch(ctx context.Context, run string, cfg exp.Config, opts runOpts) error {
	ids := []string{run}
	if run == "all" {
		// The faults experiment is opt-in: it reprices one workload
		// under synthetic failures rather than reproducing a paper
		// artifact, so it does not belong in the replication sweep.
		ids = []string{"fig1", "fig2", "fig3", "table3", "fig8", "table4", "table5", "fig9", "fig10a", "fig10b", "table6", "comparisons", "heuristics", "multi", "sharded", "realtable4"}
	}
	for _, id := range ids {
		// The deadline cuts the suite at an experiment boundary so
		// whatever already printed stays a complete artifact.
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Printf("==== %s ====\n", strings.ToUpper(id))
		if err := runOne(ctx, id, cfg, opts); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println()
	}
	return nil
}

func runOne(ctx context.Context, id string, cfg exp.Config, opts runOpts) error {
	modelPath, csvDir := opts.modelPath, opts.csvDir
	w := os.Stdout

	// csvSink opens <csvDir>/<id>.csv when -csv is set; emit runs the
	// writer against it and is a no-op otherwise.
	emit := func(write func(io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, id+".csv"))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	switch id {
	case "fig1", "fig2":
		// Both figures come from the same per-level profile; Fig. 1
		// reads the |V|cq column, Fig. 2 the |E|cq column.
		profiles, err := exp.FrontierProfiles(nil, cfg.EdgeFactor, cfg.Seed+1)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.FrontierProfilesCSV(cw, profiles) }); err != nil {
			return err
		}
		return exp.RenderFrontierProfiles(w, profiles)
	case "fig3":
		rows, err := exp.DirectionComparison(cfg)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.DirectionTimesCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderDirectionTimes(w, rows)
	case "table3":
		rows, err := exp.BestSwitchingPoints(nil, nil, max64(cfg.Seed, 1))
		if err != nil {
			return err
		}
		return exp.RenderBestM(w, rows)
	case "fig8":
		var model *tuner.Model
		if modelPath != "" {
			var err error
			model, err = tuner.LoadModel(modelPath)
			if err != nil {
				return err
			}
		} else {
			fmt.Println("training switching-point model on the default corpus...")
			var err error
			model, err = exp.TrainDefaultModel(nil)
			if err != nil {
				return err
			}
		}
		rows, err := exp.StrategyComparison(cfg, model, nil, nil)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.StrategiesCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderStrategies(w, rows)
	case "table4":
		t, err := exp.StepByStepOptimization(cfg)
		if err != nil {
			return err
		}
		return exp.RenderStepByStep(w, t)
	case "table5":
		rows, err := exp.CrossSpeedups(cfg, nil)
		if err != nil {
			return err
		}
		return exp.RenderCrossSpeedups(w, rows)
	case "fig9":
		rows, err := exp.CombinationComparison(cfg, nil)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.CombinationsCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderCombinations(w, rows)
	case "fig10a":
		rows, err := exp.StrongScaling(cfg)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.ScalingCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderScaling(w, rows)
	case "fig10b":
		rows, err := exp.WeakScaling(cfg)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.ScalingCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderScaling(w, rows)
	case "table6":
		rows, err := exp.AveragePerformance(cfg, nil)
		if err != nil {
			return err
		}
		return exp.RenderAvgPerformance(w, rows)
	case "comparisons":
		rows, err := exp.ExternalComparisons(cfg)
		if err != nil {
			return err
		}
		return exp.RenderComparisons(w, rows)
	case "heuristics":
		rows, err := exp.HeuristicComparison(cfg, nil)
		if err != nil {
			return err
		}
		return exp.RenderHeuristics(w, rows)
	case "realtable4":
		r, err := exp.MeasuredStepByStep(cfg, 3)
		if err != nil {
			return err
		}
		return r.Render(w)
	case "faults":
		rows, err := exp.FaultTolerance(ctx, cfg, opts.faultSpec, opts.faultSeed)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.FaultToleranceCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderFaultTolerance(w, rows)
	case "multi":
		for _, kind := range []archsim.Kind{archsim.MIC, archsim.GPU} {
			rows, err := exp.MultiCoprocessorScaling(cfg, kind, 3)
			if err != nil {
				return err
			}
			if err := exp.RenderMultiCoprocessor(w, rows); err != nil {
				return err
			}
		}
		return nil
	case "sharded":
		rows, err := exp.ShardedCrossover(cfg, nil, nil)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.ShardedCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderSharded(w, rows)
	case "recovery":
		rows, err := exp.Recovery(ctx, cfg, opts.faultSpec, opts.faultSeed)
		if err != nil {
			return err
		}
		if err := emit(func(cw io.Writer) error { return exp.RecoveryCSV(cw, rows) }); err != nil {
			return err
		}
		return exp.RenderRecovery(w, rows)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
